// Model-checker tests: replay determinism, the exhaustive-vs-sampled
// differential, and the seeded-mutation counterexample pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mc/counterexample.hpp"
#include "mc/explorer.hpp"
#include "scenario/mc_certify.hpp"
#include "sim/network.hpp"

namespace {

using ssps::mc::Certificate;
using ssps::mc::Counterexample;
using ssps::mc::CounterexampleFile;
using ssps::mc::Enabled;
using ssps::mc::Executor;
using ssps::mc::Explorer;
using ssps::mc::kAdvance;
using ssps::mc::StateHash;
using ssps::mc::Trace;

/// The canonical tractable root for exhaustive tests: n = 2 keeps every
/// probed seed's interleaving tree within milliseconds even before the
/// round memo kicks in. Serial-walk tests (one schedule, no tree) use
/// n = 3 directly for a richer state.
Executor::Options small_options(std::uint64_t seed) {
  return ssps::scenario::mc_certify_options(seed, 2);
}

/// Walks `exec` along the serial schedule (always the first enabled slot)
/// for `rounds` full rounds, recording the choice trace. Ends at a round
/// boundary with the final barrier NOT in the trace (the caller closes
/// it), so the trace replays to a drained primed round.
Trace serial_walk(Executor& exec, std::size_t rounds) {
  Trace trace;
  exec.prime();
  for (std::size_t r = 0; r < rounds; ++r) {
    if (r > 0) {
      exec.advance();
      trace.push_back(kAdvance);
    }
    for (;;) {
      const Enabled en = exec.enabled();
      if (en.slots.empty()) break;
      exec.fire(en.slots.front());
      trace.push_back(en.slots.front());
    }
  }
  return trace;
}

TEST(McExecutor, ReplayReestablishesTheExactState) {
  const Executor::Options options = ssps::scenario::mc_certify_options(7, 3);

  Executor a(options);
  const Trace trace = serial_walk(a, 4);
  a.barrier();
  const StateHash reference = a.state_hash();

  // A fresh executor replaying the recorded trace lands on the same
  // canonical state.
  Executor b(options);
  b.replay(trace);
  EXPECT_TRUE(b.drained());
  b.barrier();
  EXPECT_EQ(b.state_hash(), reference);

  // And replay is idempotent on the same executor (reset really rebuilds
  // the root bit-for-bit).
  b.replay(trace);
  b.barrier();
  EXPECT_EQ(b.state_hash(), reference);
}

TEST(McExecutor, EnabledPrunesDuplicateMessagesOnly) {
  Executor exec(ssps::scenario::mc_certify_options(3, 3));
  exec.prime();
  std::size_t fired = 0;
  // Fire one full round through the branch point: every offered slot is
  // distinct (by construction of enabled()), and the drained round closes
  // cleanly.
  for (;;) {
    const Enabled en = exec.enabled();
    if (en.slots.empty()) break;
    // Offered slots are unique indices in ascending order.
    for (std::size_t i = 1; i < en.slots.size(); ++i) {
      EXPECT_LT(en.slots[i - 1], en.slots[i]);
    }
    exec.fire(en.slots.front());
    ++fired;
  }
  EXPECT_TRUE(exec.drained());
  EXPECT_GT(fired, 0u);
}

TEST(McExecutor, DiscardRoundReclaimsTheUnfiredSlots) {
  // Mid-round, the pool holds the lane (next round's sends) plus the
  // primed round's unfired slots. discard_round, which reset runs before
  // dropping the system, must leave only the lane, so the pool's teardown
  // sweep finds nothing the Network did not reclaim itself.
  Executor exec(small_options(1));
  exec.prime();
  const Enabled en = exec.enabled();
  ASSERT_FALSE(en.slots.empty());
  exec.fire(en.slots.front());
  ASSERT_FALSE(exec.drained());
  ssps::sim::Network& net = exec.system().net();
  const std::size_t lane = ssps::sim::EngineSeam(net).lane().size();
  EXPECT_GT(net.pool().live(), lane);
  exec.discard_round();
  EXPECT_FALSE(exec.primed());
  EXPECT_EQ(net.pool().live(), lane);

  // The executor then replays from the root as from any other position.
  Executor fresh(small_options(1));
  const Trace trace = serial_walk(fresh, 2);
  fresh.barrier();
  exec.replay(trace);
  exec.barrier();
  EXPECT_EQ(exec.state_hash(), fresh.state_hash());
}

TEST(McExplorer, CertifiesAScrambledSmallRootExhaustively) {
  const Certificate cert = ssps::scenario::mc_certify(1, 2);
  EXPECT_TRUE(cert.certified);
  EXPECT_FALSE(cert.counterexample.has_value());
  // The search really explored a tree: multiple schedules reached
  // legality, at least some boundary states were expanded, and the round
  // memo collapsed commuting permutations.
  EXPECT_GT(cert.stats.goal_states, 0u);
  EXPECT_GT(cert.stats.visited, 0u);
  EXPECT_GT(cert.stats.memo_hits, 0u);

  // Determinism: the same options reproduce the same statistics.
  const Certificate again = ssps::scenario::mc_certify(1, 2);
  EXPECT_EQ(again.stats.visited, cert.stats.visited);
  EXPECT_EQ(again.stats.deduped, cert.stats.deduped);
  EXPECT_EQ(again.stats.por_pruned, cert.stats.por_pruned);
  EXPECT_EQ(again.stats.memo_hits, cert.stats.memo_hits);
  EXPECT_EQ(again.stats.goal_states, cert.stats.goal_states);
  EXPECT_EQ(again.stats.max_depth, cert.stats.max_depth);
}

TEST(McExplorer, ExhaustiveAgreesWithRandomScheduleSampling) {
  // Differential pin: the exhaustive pass certified every schedule from
  // this root, so 32 independently sampled random schedules must all
  // reach a legal state within the same bound. (The converse direction —
  // sampling happy, exhaustive finds a bug — is exactly the gap the
  // checker exists to close; see the mutation test.)
  const Executor::Options options = small_options(1);
  ASSERT_TRUE(Explorer(options).run().certified);
  for (std::uint64_t walk = 0; walk < 32; ++walk) {
    const auto rounds = Explorer::random_walk(options, 0x517eed + walk);
    ASSERT_TRUE(rounds.has_value()) << "random walk " << walk
                                    << " did not converge in bound";
    EXPECT_LE(*rounds, options.max_rounds);
  }
}

TEST(McExplorer, SeededMutationYieldsAReplayableCounterexample) {
  // Break the transport: SetData (the supervisor's configuration
  // assignment) is silently dropped. A scrambled system can then never
  // repair its labels, so every schedule must run into the depth bound.
  Executor::Options options = small_options(1);
  options.drop_message_name = "SetData";
  options.max_rounds = 12;  // no need to chase 24 rounds to prove it

  const Certificate cert = Explorer(options).run();
  ASSERT_FALSE(cert.certified);
  ASSERT_TRUE(cert.counterexample.has_value());
  const Counterexample& ce = *cert.counterexample;
  EXPECT_FALSE(ce.violation.empty());
  EXPECT_FALSE(ce.trace.empty());

  // Round-trip through the JSON counterexample file.
  const std::string path = testing::TempDir() + "/ssps_mc_ce.json";
  CounterexampleFile file;
  file.options = options;
  file.kind = "depth-bound";
  file.violation = ce.violation;
  file.trace = ce.trace;
  ASSERT_TRUE(ssps::mc::write_counterexample(path, file));
  const auto readback = ssps::mc::read_counterexample(path);
  ASSERT_TRUE(readback.has_value());
  EXPECT_EQ(readback->kind, "depth-bound");
  EXPECT_EQ(readback->trace, ce.trace);
  EXPECT_EQ(readback->options.seed, options.seed);
  EXPECT_EQ(readback->options.nodes, options.nodes);
  EXPECT_EQ(readback->options.max_rounds, options.max_rounds);
  EXPECT_EQ(readback->options.drop_message_name, "SetData");
  EXPECT_EQ(readback->options.scramble.seed, options.scramble.seed);
  EXPECT_EQ(readback->options.scramble.junk_messages,
            options.scramble.junk_messages);

  // Replaying the parsed file deterministically reproduces the recorded
  // violation: the end state fails the oracle with the same summary.
  Executor exec(readback->options);
  exec.replay(readback->trace);
  const auto report = exec.check();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.summary(), ce.violation);
  std::remove(path.c_str());
}

TEST(McCounterexample, ReaderRejectsGarbage) {
  const std::string path = testing::TempDir() + "/ssps_mc_garbage.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"kind\": \"depth-bound\", \"trace\": [1, oops]}", f);
  std::fclose(f);
  EXPECT_FALSE(ssps::mc::read_counterexample(path).has_value());
  EXPECT_FALSE(ssps::mc::read_counterexample(path + ".missing").has_value());
  std::remove(path.c_str());
}

}  // namespace
