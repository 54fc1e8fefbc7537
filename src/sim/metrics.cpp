#include "sim/metrics.hpp"

namespace ssps::sim {

void Metrics::on_inject(std::size_t bytes) {
  total_injected_ += 1;
  injected_bytes_ += bytes;
}

void Metrics::on_reject(std::size_t bytes) {
  total_rejected_ += 1;
  rejected_bytes_ += bytes;
}

void Metrics::fold_into(Metrics& dst) const {
  if (dst.rows_.size() < rows_.size()) dst.rows_.resize(rows_.size());
  for (std::size_t type = 0; type < rows_.size(); ++type) {
    const TypeRow& row = rows_[type];
    if (row.count == 0) continue;
    TypeRow& into = dst.rows_[type];
    into.name = row.name;
    into.count += row.count;
    into.bytes += row.bytes;
  }
  if (dst.received_.size() < received_.size()) dst.received_.resize(received_.size(), 0);
  for (std::size_t i = 0; i < received_.size(); ++i) dst.received_[i] += received_[i];
  dst.total_sent_ += total_sent_;
  dst.total_delivered_ += total_delivered_;
  dst.total_bytes_ += total_bytes_;
  dst.total_injected_ += total_injected_;
  dst.injected_bytes_ += injected_bytes_;
  dst.total_rejected_ += total_rejected_;
  dst.rejected_bytes_ += rejected_bytes_;
}

void Metrics::reset() {
  rows_.clear();
  received_.clear();
  total_sent_ = 0;
  total_delivered_ = 0;
  total_bytes_ = 0;
  total_injected_ = 0;
  injected_bytes_ = 0;
  total_rejected_ = 0;
  rejected_bytes_ = 0;
  view_sent_ = kViewInvalid;
}

std::uint64_t Metrics::sent(std::string_view name) const {
  std::uint64_t total = 0;
  for (const TypeRow& row : rows_) {
    if (row.name == name) total += row.count;
  }
  return total;
}

std::uint64_t Metrics::received_by(NodeId id) const {
  const auto index = static_cast<std::size_t>(id.value - 1);
  return index < received_.size() ? received_[index] : 0;
}

const std::vector<std::pair<std::string, MessageCounter>>& Metrics::by_label()
    const {
  if (view_sent_ == total_sent_) return by_label_view_;
  std::vector<TypeRow> sorted;
  for (const TypeRow& row : rows_) {
    if (row.count != 0) sorted.push_back(row);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const TypeRow& a, const TypeRow& b) { return a.name < b.name; });
  by_label_view_.clear();
  for (const TypeRow& row : sorted) {
    if (by_label_view_.empty() || by_label_view_.back().first != row.name) {
      by_label_view_.emplace_back(std::string(row.name), MessageCounter{});
    }
    MessageCounter& counter = by_label_view_.back().second;
    counter.count += row.count;
    counter.bytes += row.bytes;
  }
  view_sent_ = total_sent_;
  return by_label_view_;
}

}  // namespace ssps::sim
