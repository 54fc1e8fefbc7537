// Model-checker tests: replay determinism, checkpoint restore, the
// exhaustive-vs-sampled differential, the pinned search, and the
// seeded-mutation counterexample pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/encode.hpp"
#include "common/rng.hpp"
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

/// One choice from the executor's position: fires an enabled slot (the
/// first, or one drawn from `rng` when given) or, once the round is
/// drained, advances to the next round. Returns the choice as a trace
/// records it.
std::uint32_t step(Executor& exec, ssps::Rng* rng) {
  const Enabled en = exec.enabled();
  if (en.slots.empty()) {
    exec.advance();
    return kAdvance;
  }
  const std::uint32_t slot =
      rng != nullptr ? en.slots[rng->pick_index(en.slots)] : en.slots.front();
  exec.fire(slot);
  return slot;
}

/// Re-applies one recorded choice.
void apply(Executor& exec, std::uint32_t choice) {
  if (choice == kAdvance) {
    exec.advance();
  } else {
    exec.fire(choice);
  }
}

/// Every version counter of the system, supervisor first: restore must
/// never move one back.
std::vector<std::uint64_t> versions(Executor& exec) {
  ssps::pubsub::PubSubSystem& sys = exec.system();
  std::vector<std::uint64_t> out{sys.supervisor().db_version()};
  for (const ssps::sim::NodeId id : sys.subscriber_ids()) {
    out.push_back(sys.subscriber(id).state_version());
  }
  return out;
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

TEST(McExecutor, RestoreReturnsToTheSavedPosition) {
  // Walk serial and random schedules. At every position, save, run ahead
  // (1 to 7 choices, so some excursions cross round boundaries), restore:
  // the executor must be back at the saved position — the same hash as
  // before, the same hash replay reaches from the root — and must retrace
  // the excursion hash for hash. One checkpoint serves the whole walk, as
  // one serves each level of the explorer: every save overwrites it.
  for (const std::size_t nodes : {2u, 3u}) {
    for (const bool random : {false, true}) {
      SCOPED_TRACE(std::to_string(nodes) + (random ? " nodes, random" : " nodes"));
      const Executor::Options options = ssps::scenario::mc_certify_options(7, nodes);
      Executor exec(options);
      Executor reference(options);
      Executor::Checkpoint checkpoint;
      ssps::Rng rng(0x5eed + nodes);
      exec.prime();
      Trace trace;
      for (std::size_t position = 0; position < 48; ++position) {
        const StateHash here = exec.state_hash();
        // Not hashed (no protocol decision reads it here), but restored.
        const ssps::sim::Round round = exec.system().net().round();
        exec.save(checkpoint);
        const std::vector<std::uint64_t> saved = versions(exec);

        Trace ahead;
        std::vector<StateHash> hashes;
        ssps::Rng ahead_rng(position);
        for (std::size_t k = 0; k < 1 + position % 7; ++k) {
          ahead.push_back(step(exec, random ? &ahead_rng : nullptr));
          hashes.push_back(exec.state_hash());
        }
        const std::vector<std::uint64_t> before = versions(exec);
        exec.restore(checkpoint);
        ASSERT_EQ(exec.state_hash(), here) << "position " << position;
        EXPECT_EQ(exec.system().net().round(), round);
        // No version goes back, and a node the excursion changed comes
        // back past every version it had; restore leaves the others alone.
        const std::vector<std::uint64_t> after = versions(exec);
        for (std::size_t v = 0; v < before.size(); ++v) {
          EXPECT_GE(after[v], before[v]);
          if (before[v] != saved[v]) {
            EXPECT_GT(after[v], before[v]);
          }
        }

        reference.replay(trace);
        EXPECT_EQ(reference.state_hash(), here) << "position " << position;

        for (std::size_t k = 0; k < ahead.size(); ++k) {
          apply(exec, ahead[k]);
          EXPECT_EQ(exec.state_hash(), hashes[k]) << "position " << position << " +" << k;
        }
        // The checkpoint outlives a restore: the walk goes on from it.
        exec.restore(checkpoint);
        trace.push_back(step(exec, random ? &rng : nullptr));
      }
      EXPECT_GT(exec.rounds(), 1u);
    }
  }

  // A checkpoint saved twice restores only its last save: nothing of the
  // first save's messages, round or caches comes back with the second.
  Executor exec(ssps::scenario::mc_certify_options(7, 3));
  Executor::Checkpoint checkpoint;
  exec.prime();
  const StateHash first = exec.state_hash();
  exec.save(checkpoint);
  for (int k = 0; k < 12; ++k) step(exec, nullptr);
  const StateHash second = exec.state_hash();
  const std::size_t live = exec.system().net().pool().live();
  const std::size_t rounds = exec.rounds();
  exec.save(checkpoint);
  for (int k = 0; k < 12; ++k) step(exec, nullptr);
  exec.restore(checkpoint);
  ASSERT_NE(second, first);
  EXPECT_EQ(exec.state_hash(), second);
  EXPECT_EQ(exec.system().net().pool().live(), live);
  EXPECT_EQ(exec.rounds(), rounds);
}

TEST(McExecutor, IncrementalHashMatchesAColdEncoding) {
  // state_hash() re-encodes only the nodes and messages that changed since
  // it last ran. replay(trace) rebuilds the system, which leaves every
  // cache cold, so at every position of a walk the incremental hash must
  // equal the one replay reaches. The walks cover serial and random
  // schedules, positions just after a barrier (before the next prime) and
  // positions just after a restore, whose excursions run ahead 1 to 5
  // choices and so sometimes cross a round boundary.
  for (const std::size_t nodes : {2u, 3u}) {
    for (const int junk : {0, 1}) {
      for (const bool random : {false, true}) {
        SCOPED_TRACE(std::to_string(nodes) + " nodes, junk " + std::to_string(junk) +
                     (random ? ", random" : ""));
        Executor::Options options = ssps::scenario::mc_certify_options(11, nodes);
        options.scramble.junk_messages = junk;
        Executor exec(options);
        Executor cold(options);
        Executor::Checkpoint checkpoint;
        ssps::Rng rng(0xc01d + nodes + 2 * junk);
        const auto expect_cold = [&](const Trace& trace, bool closed, const char* where) {
          cold.replay(trace);
          if (closed) cold.barrier();
          EXPECT_EQ(exec.state_hash(), cold.state_hash())
              << where << " after " << trace.size();
        };
        exec.prime();
        Trace trace;
        for (std::size_t position = 0; position < 40; ++position) {
          expect_cold(trace, false, "walk");
          if (position % 4 == 3) {
            // An excursion from a checkpoint, hashed all the way, then back.
            exec.save(checkpoint);
            Trace ahead = trace;
            ssps::Rng ahead_rng(position);
            for (std::size_t k = 0; k < 1 + position % 5; ++k) {
              ahead.push_back(step(exec, random ? &ahead_rng : nullptr));
              expect_cold(ahead, false, "excursion");
            }
            exec.restore(checkpoint);
            expect_cold(trace, false, "restore");
          }
          if (exec.enabled().slots.empty()) {
            // A drained round: hash the boundary between barrier and prime.
            exec.barrier();
            expect_cold(trace, true, "barrier");
            exec.prime();
            trace.push_back(kAdvance);
            continue;
          }
          trace.push_back(step(exec, random ? &rng : nullptr));
        }
        EXPECT_GT(exec.rounds(), 1u);
      }
    }
  }
}

/// Fires the round's remaining slots in the serial order, recording each.
void drain(Executor& exec, Trace& trace) {
  for (Enabled en = exec.enabled(); !en.slots.empty(); en = exec.enabled()) {
    exec.fire(en.slots.front());
    trace.push_back(en.slots.front());
  }
}

TEST(McExecutor, RestoreNeverReusesAStamp) {
  // Stamp aliasing: save A, fire x, save B into a second checkpoint,
  // restore A, fire a different slot y at the same target, restore B.
  // Each fire gives the target a stamp, and save and restore skip a node
  // whose stamps agree. Had restoring A rewound the stamp clock, y's state
  // would carry x's stamp and restoring B would keep it. The second
  // variant drains the round and crosses a barrier on both paths before
  // B, so every node is stamped the same number of times on each.
  std::size_t apart[2] = {0, 0};
  for (const std::size_t nodes : {2u, 3u}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    const Executor::Options options = ssps::scenario::mc_certify_options(7, nodes);
    Executor exec(options);
    Executor reference(options);
    Executor::Checkpoint a;
    Executor::Checkpoint b;
    exec.prime();
    Trace trace;
    for (std::size_t position = 0; position < 40; ++position) {
      const Enabled en = exec.enabled();
      for (const bool cross : {false, true}) {
        if (en.slots.size() < 2) break;
        SCOPED_TRACE("position " + std::to_string(position) + (cross ? ", cross" : ""));
        exec.save(a);
        Trace to_b = trace;
        Trace to_other;
        const auto excursion = [&](std::uint32_t slot, Trace& path) {
          exec.fire(slot);
          path.push_back(slot);
          if (!cross) return;
          drain(exec, path);
          exec.advance();
          path.push_back(kAdvance);
        };
        excursion(en.slots[0], to_b);
        const StateHash at_b = exec.state_hash();
        exec.save(b);
        exec.restore(a);
        excursion(en.slots[1], to_other);
        const StateHash other = exec.state_hash();
        exec.restore(b);
        EXPECT_EQ(exec.state_hash(), at_b);
        reference.replay(to_b);
        EXPECT_EQ(reference.state_hash(), at_b);
        if (other != at_b) ++apart[cross ? 1 : 0];
        exec.restore(a);
      }
      trace.push_back(step(exec, nullptr));
    }
  }
  // Both variants met positions where the two paths really diverged.
  EXPECT_GT(apart[0], 0u);
  EXPECT_GT(apart[1], 0u);
}

/// The canonical encoding of grouped slot `slot` (target, name, payload),
/// the bytes the executor digests.
std::vector<std::uint8_t> slot_bytes(Executor& exec, std::size_t slot) {
  const ssps::sim::Envelope& env =
      ssps::sim::EngineSeam(exec.system().net()).grouped(slot);
  std::vector<std::uint8_t> out;
  ssps::common::Encoder enc(out);
  enc.u64(env.to.value);
  enc.string(env.msg->name());
  EXPECT_TRUE(env.msg->encode(enc));
  return out;
}

TEST(McExecutor, IdenticalMessagesAllCountInTheFingerprint) {
  // The channel multisets enter the fingerprint as a count and a sum of
  // message digests, in which every copy counts. An XOR would cancel each
  // pair of byte-identical messages: a batch left holding {m, m} would
  // hash like one left holding {x, x}. Under the drop mutation a fired
  // slot moves no node, so the positions below differ only in what the
  // batch has left: both copies of m, one, none, or both of x instead.
  std::size_t found = 0;
  for (const char* name : {"Check", "Introduce", "CheckTrie", "GetConfiguration"}) {
    for (std::uint64_t seed = 1; seed <= 8 && found < 3; ++seed) {
      Executor::Options options = ssps::scenario::mc_certify_options(seed, 3);
      options.drop_message_name = name;
      Executor exec(options);
      for (std::size_t round = 0; round < 6; ++round) {
        if (round > 0) exec.barrier();
        const std::size_t batch =
            ssps::sim::EngineSeam(exec.system().net()).lane().size();
        exec.prime();
        // Slots of the dropped class by encoding: two distinct messages
        // that each arrive twice.
        std::map<std::vector<std::uint8_t>, std::vector<std::uint32_t>> copies;
        for (std::uint32_t i = 0; i < batch; ++i) {
          if (ssps::sim::EngineSeam(exec.system().net()).grouped(i).msg->name() == name) {
            copies[slot_bytes(exec, i)].push_back(i);
          }
        }
        std::vector<const std::vector<std::uint32_t>*> pairs;
        for (const auto& [bytes, slots] : copies) {
          if (slots.size() >= 2) pairs.push_back(&slots);
        }
        if (pairs.size() >= 2) {
          SCOPED_TRACE(std::string(name) + ", seed " + std::to_string(seed));
          const std::vector<std::uint32_t>& m = *pairs[0];
          const std::vector<std::uint32_t>& x = *pairs[1];
          Executor::Checkpoint checkpoint;
          exec.save(checkpoint);
          const StateHash both = exec.state_hash();
          exec.fire(m[0]);
          const StateHash one = exec.state_hash();
          exec.fire(m[1]);
          const StateHash none = exec.state_hash();
          exec.restore(checkpoint);
          exec.fire(x[0]);
          exec.fire(x[1]);
          const StateHash other_pair = exec.state_hash();
          EXPECT_NE(both, one);
          EXPECT_NE(both, none);
          EXPECT_NE(one, none);
          EXPECT_NE(none, other_pair);
          exec.restore(checkpoint);
          ++found;
        }
        for (std::uint32_t i = 0; i < batch; ++i) exec.fire(i);
        if (exec.check().ok()) break;
      }
    }
  }
  EXPECT_GT(found, 0u);
}

TEST(McExecutor, RestoreRefusesACheckpointOfARebuiltSystem) {
  Executor exec(small_options(1));
  exec.prime();
  Executor::Checkpoint checkpoint;
  exec.save(checkpoint);
  exec.replay(Trace{});
  EXPECT_DEATH(exec.restore(checkpoint), "rebuilt");
}

TEST(McExecutor, StateHashKnownAnswer) {
  // Pins the canonical encoding byte for byte: the 128-bit hashes of a
  // fixed root's boundary and of one mid-round position (two deliveries
  // in, with sends in the lane and the rest of the batch unfired).
  Executor exec(ssps::scenario::mc_certify_options(7, 3));
  EXPECT_EQ(exec.state_hash(), (StateHash{0x9b389331fc65c1ccull, 0x00cd5463374015d8ull}));
  exec.prime();
  for (int k = 0; k < 2; ++k) {
    const Enabled en = exec.enabled();
    ASSERT_FALSE(en.slots.empty());
    exec.fire(en.slots.back());
  }
  ASSERT_FALSE(exec.drained());
  EXPECT_EQ(exec.state_hash(), (StateHash{0x1e485f3f98c0c6c7ull, 0x8a8498485e02f1f2ull}));
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

/// Certificate statistics, all six, as one comparable value.
std::vector<std::size_t> stats_of(const Certificate& cert) {
  const ssps::mc::Stats& s = cert.stats;
  return {s.visited, s.deduped, s.por_pruned, s.memo_hits, s.goal_states, s.max_depth};
}

TEST(McExplorer, SearchStatisticsArePinned) {
  // The search visits exactly these positions: a change to how the
  // explorer gets around its tree (backtracking, hashing) must leave
  // every count as it is. Order: visited, deduped, por_pruned, memo_hits,
  // goal_states, max_depth.
  using Pin = std::vector<std::size_t>;
  const Certificate n2s1 = ssps::scenario::mc_certify(1, 2);
  EXPECT_TRUE(n2s1.certified);
  EXPECT_EQ(stats_of(n2s1), (Pin{13, 15, 80, 361, 24, 6}));
  const Certificate n2s3 = ssps::scenario::mc_certify(3, 2);
  EXPECT_TRUE(n2s3.certified);
  EXPECT_EQ(stats_of(n2s3), (Pin{186, 272, 2115, 6910, 156, 7}));
  Executor::Options n3 = ssps::scenario::mc_certify_options(2, 3);
  n3.scramble.junk_messages = 1;
  const Certificate n3j1s2 = Explorer(n3).run();
  EXPECT_TRUE(n3j1s2.certified);
  EXPECT_EQ(stats_of(n3j1s2), (Pin{1458, 1886, 29113, 164509, 88, 8}));
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
