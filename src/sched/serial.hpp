// The single-threaded round scheduler.
#pragma once

#include "sched/scheduler.hpp"

namespace ssps::sched {

/// Runs every round phase on the calling thread, accounting through the
/// Network's own SendContext. This is the reference implementation of the
/// scheduler contract: ParallelScheduler must reproduce its delivery
/// trace bit-for-bit.
class SerialScheduler final : public Scheduler {
 public:
  std::size_t advance(sim::Network& net) override;
  unsigned threads() const override { return 1; }
  std::string_view name() const override { return "serial"; }
};

}  // namespace ssps::sched
