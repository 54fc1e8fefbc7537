// Broker baseline: delivery correctness and the server-load scaling that
// motivates the supervised design (paper introduction).
#include "baseline/broker.hpp"

#include <gtest/gtest.h>

namespace ssps::baseline {
namespace {

TEST(Broker, DeliversToAllSubscribers) {
  sim::Network net(1);
  const auto broker = net.spawn<BrokerNode>();
  std::vector<sim::NodeId> clients;
  for (int i = 0; i < 8; ++i) clients.push_back(net.spawn<BrokerClientNode>(broker));
  for (auto c : clients) net.node_as<BrokerClientNode>(c).subscribe();
  net.run_unit();
  net.node_as<BrokerClientNode>(clients[0]).publish("hi");
  net.run_units(2);
  for (auto c : clients) {
    EXPECT_EQ(net.node_as<BrokerClientNode>(c).received(), 1u);
  }
}

TEST(Broker, UnsubscribedClientsStopReceiving) {
  sim::Network net(2);
  const auto broker = net.spawn<BrokerNode>();
  const auto a = net.spawn<BrokerClientNode>(broker);
  const auto b = net.spawn<BrokerClientNode>(broker);
  net.node_as<BrokerClientNode>(a).subscribe();
  net.node_as<BrokerClientNode>(b).subscribe();
  net.run_unit();
  net.emit<msg::BrokerUnsubscribe>(broker, b);
  net.run_unit();
  net.node_as<BrokerClientNode>(a).publish("solo");
  net.run_units(2);
  EXPECT_EQ(net.node_as<BrokerClientNode>(b).received(), 0u);
}

TEST(Broker, ServerLoadScalesWithPublishVolumeTimesSubscribers) {
  // The quantitative contrast to Theorem 7: P publications × S subscribers
  // deliveries at the single server.
  sim::Network net(3);
  const auto broker = net.spawn<BrokerNode>();
  std::vector<sim::NodeId> clients;
  const std::size_t s = 16;
  for (std::size_t i = 0; i < s; ++i) {
    clients.push_back(net.spawn<BrokerClientNode>(broker));
    net.node_as<BrokerClientNode>(clients.back()).subscribe();
  }
  net.run_unit();
  const std::size_t p = 10;
  for (std::size_t i = 0; i < p; ++i) {
    net.node_as<BrokerClientNode>(clients[i % s]).publish("n" + std::to_string(i));
  }
  net.run_units(2);
  EXPECT_EQ(net.node_as<BrokerNode>(broker).deliveries(), p * (s - 1));
  EXPECT_EQ(net.metrics().received_by(broker, "BrokerPublish"), p);
}

TEST(Broker, PublisherKeepsALocalCopy) {
  sim::Network net(4);
  const auto broker = net.spawn<BrokerNode>();
  const auto a = net.spawn<BrokerClientNode>(broker);
  net.node_as<BrokerClientNode>(a).subscribe();
  net.run_unit();
  net.node_as<BrokerClientNode>(a).publish("own");
  net.run_units(2);
  EXPECT_EQ(net.node_as<BrokerClientNode>(a).received(), 1u);  // not doubled
}

}  // namespace
}  // namespace ssps::baseline
