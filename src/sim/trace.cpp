#include "sim/trace.hpp"

#include <sstream>

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

void Trace::clear() {
  events_.clear();
  dropped_ = 0;
}

std::vector<TraceEvent> Trace::filter(std::string_view label) const {
  std::vector<TraceEvent> out;
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return out;  // never interned: no event has it
  for (const TraceEvent& e : events_) {
    if (e.label == it->second) out.push_back(e);
  }
  return out;
}

std::string Trace::to_text() const {
  std::ostringstream out;
  if (dropped_ > 0) out << "(… " << dropped_ << " earlier events dropped)\n";
  for (const TraceEvent& e : events_) {
    out << "[r" << e.round << "] " << e.from.value << " -> " << e.to.value << " : "
        << label_names_[e.label] << "\n";
  }
  return out.str();
}

}  // namespace ssps::sim
