#include "sched/scheduler.hpp"

#include "sched/parallel.hpp"
#include "sched/serial.hpp"
#include "sim/network.hpp"

namespace ssps::sched {

void Scheduler::sample(sim::Network& net, std::size_t delivered) {
  // Sample after the unit barrier: any parallel phase is over, so the
  // lane and the alive count are stable and every serialized field is a
  // pure function of the simulated state (worker-count-invariant).
  sim::EngineSeam seam(net);
  seam.push_sample(net.round(), delivered, seam.last_round_timeouts());
}

std::unique_ptr<Scheduler> make_round_scheduler(unsigned threads) {
  if (threads == 1) return std::make_unique<SerialScheduler>();
  return std::make_unique<ParallelScheduler>(threads);
}

}  // namespace ssps::sched
