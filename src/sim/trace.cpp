#include "sim/trace.hpp"

namespace ssps::sim {

std::uint32_t Trace::intern(std::string_view label) {
  auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(label_names_.size());
  label_names_.emplace_back(label);
  label_ids_.emplace(label_names_.back(), id);
  return id;
}

void Trace::record_id(Round round, NodeId from, NodeId to, std::uint32_t label,
                      TraceEventKind kind, std::uint64_t flow) {
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(TraceEvent{round, from, to, label, kind, flow});
}

}  // namespace ssps::sim
