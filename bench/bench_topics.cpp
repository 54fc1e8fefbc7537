// Experiment E13 — §1.3/§4: multi-topic scaling. The supervisor's message
// overhead is "linear in the number of topics (but not in the number of
// subscribers)"; sharding topics over a consistent-hashing supervisor
// group splits that load.
#include "bench_common.hpp"
#include "pubsub/topics.hpp"

namespace {

using namespace ssps;
using namespace ssps::pubsub;

struct TopicLoad {
  double supervisor_out_per_round = 0;
  double supervisor_in_per_round = 0;
};

TopicLoad run_single_supervisor(std::size_t topics, std::size_t subs_per_topic,
                                std::uint64_t seed) {
  sim::Network net(seed);
  const auto sup = net.spawn<MultiTopicSupervisorNode>();
  std::vector<sim::NodeId> clients;
  for (std::size_t i = 0; i < subs_per_topic; ++i) {
    clients.push_back(net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup)));
  }
  for (TopicId t = 1; t <= topics; ++t) {
    for (sim::NodeId c : clients) net.node_as<MultiTopicNode>(c).subscribe(t);
  }
  net.run_units(80);  // converge every topic ring
  net.metrics().reset();
  const std::size_t window = 50;
  net.run_units(window);
  TopicLoad out;
  out.supervisor_out_per_round =
      static_cast<double>(net.metrics().sent("SetData")) / window;
  out.supervisor_in_per_round =
      static_cast<double>(net.metrics().received_by(sup)) / window;
  return out;
}

double max_supervisor_in_group(std::size_t topics, std::size_t supervisors,
                               std::size_t subs_per_topic, std::uint64_t seed) {
  sim::Network net(seed);
  std::vector<sim::NodeId> sups;
  for (std::size_t i = 0; i < supervisors; ++i) {
    sups.push_back(net.spawn<MultiTopicSupervisorNode>());
  }
  SupervisorGroup group(sups);
  auto resolver = [&group](TopicId t) { return group.supervisor_for(t); };
  std::vector<sim::NodeId> clients;
  for (std::size_t i = 0; i < subs_per_topic; ++i) {
    clients.push_back(net.spawn<MultiTopicNode>(resolver));
  }
  for (TopicId t = 1; t <= topics; ++t) {
    for (sim::NodeId c : clients) net.node_as<MultiTopicNode>(c).subscribe(t);
  }
  net.run_units(80);
  net.metrics().reset();
  const std::size_t window = 50;
  net.run_units(window);
  double worst = 0;
  for (sim::NodeId s : sups) {
    worst = std::max(worst, static_cast<double>(net.metrics().received_by(s)) / window);
  }
  return worst;
}

void print_experiment() {
  {
    // The thousand-topic points exercise the flat per-topic tables
    // (common/flat_map.hpp): every supervisor Timeout walks all of its
    // per-topic instances, and every envelope dispatch looks one up.
    Table table({"topics", "subs/topic", "supervisor out/round", "supervisor in/round"});
    for (std::size_t topics : {1u, 4u, 16u, 64u, 256u, 1024u}) {
      const std::size_t subs = topics >= 256 ? 4 : 8;
      const TopicLoad load = run_single_supervisor(topics, subs, 10 + topics);
      table.add_row({Table::num(static_cast<std::uint64_t>(topics)),
                     Table::num(static_cast<std::uint64_t>(subs)),
                     Table::num(load.supervisor_out_per_round, 2),
                     Table::num(load.supervisor_in_per_round, 2)});
    }
    table.print(
        "E13a / §1.3 — single supervisor, topic sweep to 1024 topics "
        "(expect: load linear in topics — ~1 SetData per topic per round)");
  }
  {
    Table table({"topics", "supervisors", "max supervisor in/round"});
    const std::size_t topics = 32;
    for (std::size_t sups : {1u, 2u, 4u, 8u}) {
      table.add_row({Table::num(static_cast<std::uint64_t>(topics)),
                     Table::num(static_cast<std::uint64_t>(sups)),
                     Table::num(max_supervisor_in_group(topics, sups, 6, 20 + sups), 2)});
    }
    table.print(
        "E13b / §1.3 — consistent-hashing supervisor group "
        "(expect: worst per-supervisor load shrinks as supervisors are added)");
  }
}

void BM_MultiTopicRound(benchmark::State& state) {
  const std::size_t topics = static_cast<std::size_t>(state.range(0));
  sim::Network net(1);
  const auto sup = net.spawn<MultiTopicSupervisorNode>();
  std::vector<sim::NodeId> clients;
  for (int i = 0; i < 8; ++i) {
    clients.push_back(net.spawn<MultiTopicNode>(MultiTopicNode::fixed(sup)));
  }
  for (TopicId t = 1; t <= topics; ++t) {
    for (sim::NodeId c : clients) net.node_as<MultiTopicNode>(c).subscribe(t);
  }
  net.run_units(80);
  for (auto _ : state) net.run_unit();
}
BENCHMARK(BM_MultiTopicRound)
    ->Arg(4)
    ->Arg(32)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

SSPS_BENCH_MAIN("topics", print_experiment)
