#include "sched/serial.hpp"

#include "sim/network.hpp"

namespace ssps::sched {

std::size_t SerialScheduler::advance(sim::Network& net) {
  sim::EngineSeam seam(net);
  const std::size_t batch = seam.round_begin();
  const std::size_t delivered = seam.deliver(0, batch, seam.main_ctx());
  seam.timeout_sweep();
  seam.round_end();
  return delivered;
}

}  // namespace ssps::sched
