// Experiment E10 — the paper's introduction: in the client-server
// architecture "the server has to be powerful enough to handle the
// dissemination of the publish requests", whereas the supervisor "just
// handles subscribe and unsubscribe requests but does not handle the
// dissemination". Same workload, two architectures, central-party load.
#include "baseline/broker.hpp"
#include "bench_common.hpp"
#include "pubsub/pubsub_node.hpp"

namespace {

using namespace ssps;
using namespace ssps::core;
using namespace ssps::pubsub;

struct CentralLoad {
  std::uint64_t central_in = 0;
  std::uint64_t central_out = 0;
  std::uint64_t max_peer_load = 0;
};

CentralLoad run_broker(std::size_t n, std::size_t pubs, std::uint64_t seed) {
  sim::Network net(seed);
  const auto broker = net.spawn<baseline::BrokerNode>();
  std::vector<sim::NodeId> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.push_back(net.spawn<baseline::BrokerClientNode>(broker));
    net.node_as<baseline::BrokerClientNode>(clients.back()).subscribe();
  }
  net.run_units(2);
  net.metrics().reset();
  for (std::size_t p = 0; p < pubs; ++p) {
    net.node_as<baseline::BrokerClientNode>(clients[p % n])
        .publish("story " + std::to_string(p));
    net.run_unit();
  }
  net.run_units(2);
  CentralLoad out;
  out.central_in = net.metrics().received_by(broker);
  out.central_out = net.metrics().sent("BrokerDeliver");
  for (sim::NodeId c : clients) {
    out.max_peer_load = std::max(out.max_peer_load, net.metrics().received_by(c));
  }
  return out;
}

CentralLoad run_supervised(std::size_t n, std::size_t pubs, std::uint64_t seed) {
  PubSubSystem sys(SkipRingSystem::Options{.seed = seed, .fd_delay = 0},
                   PubSubConfig{});
  const auto ids = sys.add_pubsub_subscribers(n);
  sys.run_until_legit(8000);
  sys.net().metrics().reset();
  for (std::size_t p = 0; p < pubs; ++p) {
    sys.pubsub(ids[p % n]).publish("story " + std::to_string(p));
    sys.net().run_unit();
  }
  sys.net().run_units(2);
  CentralLoad out;
  out.central_in = sys.net().metrics().received_by(sys.supervisor_id());
  out.central_out = sys.net().metrics().sent("SetData");
  for (sim::NodeId id : ids) {
    out.max_peer_load = std::max(out.max_peer_load, sys.net().metrics().received_by(id));
  }
  return out;
}

void print_experiment() {
  Table table({"n", "pubs", "architecture", "central in", "central out",
               "max peer in-load"});
  for (std::size_t n : {16u, 64u, 256u}) {
    const std::size_t pubs = 2 * n;
    const CentralLoad broker = run_broker(n, pubs, 1);
    const CentralLoad supervised = run_supervised(n, pubs, 2);
    auto add = [&](const char* arch, const CentralLoad& l) {
      table.add_row({Table::num(static_cast<std::uint64_t>(n)),
                     Table::num(static_cast<std::uint64_t>(pubs)), arch,
                     Table::num(l.central_in), Table::num(l.central_out),
                     Table::num(l.max_peer_load)});
    };
    add("broker (client-server)", broker);
    add("supervised skip ring", supervised);
  }
  table.print(
      "E10 / §1 — central-party load under a publish-heavy workload "
      "(expect: broker out = pubs*(n-1), growing with n*pubs; supervisor "
      "traffic stays maintenance-level, independent of publish volume)");
}

void BM_BrokerPublish(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Network net(1);
  const auto broker = net.spawn<baseline::BrokerNode>();
  std::vector<sim::NodeId> clients;
  for (std::size_t i = 0; i < n; ++i) {
    clients.push_back(net.spawn<baseline::BrokerClientNode>(broker));
    net.node_as<baseline::BrokerClientNode>(clients.back()).subscribe();
  }
  net.run_units(2);
  std::size_t i = 0;
  for (auto _ : state) {
    net.node_as<baseline::BrokerClientNode>(clients[i % n]).publish("x");
    net.run_unit();
    ++i;
  }
}
BENCHMARK(BM_BrokerPublish)->Arg(256)->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("broker", print_experiment)
