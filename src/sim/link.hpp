// Link model of the event-driven timed scheduler (Scheduler::kTimed).
//
// The round scheduler idealizes every channel: unit latency, no loss, no
// duplication. The timed scheduler replaces that with per-link behavior:
// each message samples a delivery latency from a configurable distribution
// and is subject to seeded loss / duplication / reordering probabilities
// plus a partition schedule (directional link cuts over virtual-time
// windows). Nodes are grouped into zones (round-robin by id), and a link
// is either intra-zone ("local": same rack) or inter-zone ("remote":
// cross-zone) — the two LinkProfiles compose the same-rack vs
// wide-area regimes the geo scenarios model.
//
// Time is an integer virtual clock in millisecond ticks; one scheduler
// interval (the paper's "timeout interval", one Network round) spans
// kTicksPerInterval ticks = 1 virtual second. With the default profile —
// constant latency of exactly one interval, zero loss — the timed engine
// reproduces the round scheduler's delivery trace bit-for-bit (see
// sched::TimedScheduler::advance), which is both the backward-compatibility
// proof and the differential oracle for everything in this file.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/message.hpp"
#include "sim/types.hpp"

namespace ssps::sim {

/// Wire-level damage model for the timed scheduler's corrupting links
/// (LinkProfile::corrupt). The sim layer owns only the seam: an
/// implementation serializes the message, mangles the bytes and re-decodes
/// them, so a corrupted send exercises a real decode path. Returns the
/// message the receiver ends up decoding (usually different from the
/// original), or an empty handle when the damage is detected (checksum or
/// structure) and the bytes are rejected instead of delivered.
/// wire::CodecCorrupter (src/wire/corrupt.hpp) is the implementation.
class Corrupter {
 public:
  virtual ~Corrupter() = default;
  virtual PooledMsg corrupt(const Message& m, MessagePool& pool,
                            ssps::Rng& rng) = 0;
};

/// Virtual-clock ticks per scheduler interval: 1 tick = 1 ms, one interval
/// (= one Network round in timed mode) = 1 virtual second.
inline constexpr Step kTicksPerInterval = 1000;

/// Per-message delivery-latency distribution, parameterized in seconds.
struct LatencySpec {
  enum class Dist : std::uint8_t {
    kConstant,   ///< always `a` seconds
    kUniform,    ///< uniform in [a, b] seconds
    kLognormal,  ///< exp(Normal(a, b)) seconds (a = mu, b = sigma)
  };

  Dist dist = Dist::kConstant;
  double a = 1.0;
  double b = 0.0;

  /// Samples one latency in ticks (>= 1: a zero-latency draw still costs
  /// one tick, so a message can never be delivered in the interval that
  /// sent it — the causality floor the round model also has). A constant
  /// spec draws nothing from `rng`, which keeps the default profile's
  /// link stream empty and the round-equivalence proof float-free.
  Step sample_ticks(Rng& rng) const;
};

/// Behavior of one link class: latency distribution plus fault
/// probabilities, applied independently per message.
struct LinkProfile {
  LatencySpec latency;
  double loss = 0.0;       ///< P(message silently dropped)
  double duplicate = 0.0;  ///< P(a clone is delivered too, independently)
  double reorder = 0.0;    ///< P(extra jitter pushes it behind later sends)
  /// P(the encoded bytes are mangled in flight). Requires a Corrupter
  /// handed to the sched::TimedScheduler: the message is serialized,
  /// damaged (bit-flips, truncation, garbage splice) and re-decoded, so a
  /// corrupted send exercises the real wire-decode path — most manglings
  /// fail the frame checksum and the message is rejected (counted, not
  /// delivered); the rest decode into a valid-but-different message the
  /// protocol must stabilize around.
  double corrupt = 0.0;
};

/// One directional (or symmetric) link cut between two zones over a
/// virtual-time window. A message is cut when its *send* tick falls in
/// [from_tick(), to_tick()) and its endpoints match the zone pair.
struct PartitionWindow {
  std::uint64_t from_s = 0;  ///< window start, virtual seconds (inclusive)
  std::uint64_t to_s = 0;    ///< window end, virtual seconds (exclusive)
  std::uint32_t zone_a = 0;
  std::uint32_t zone_b = 0;
  /// Symmetric cut (both directions); false cuts only zone_a -> zone_b.
  bool bidirectional = true;

  Step from_tick() const { return from_s * kTicksPerInterval; }
  Step to_tick() const { return to_s * kTicksPerInterval; }
};

/// Complete link-layer configuration of a timed run. The default is the
/// round scheduler's idealized channel (one zone, constant one-interval
/// latency, zero faults).
struct TimedConfig {
  /// Zone count; node ids map round-robin onto [0, zones). 1 = every link
  /// is local.
  std::uint32_t zones = 1;
  /// Intra-zone links (and every link when zones == 1).
  LinkProfile local;
  /// Inter-zone links.
  LinkProfile remote;
  /// Link cuts over virtual-time windows, checked per message.
  std::vector<PartitionWindow> partitions;

  std::uint32_t zone_of(NodeId id) const {
    return zones <= 1 ? 0
                      : static_cast<std::uint32_t>((id.value - 1) % zones);
  }
  const LinkProfile& profile_between(NodeId from, NodeId to) const {
    return zone_of(from) == zone_of(to) ? local : remote;
  }
  /// True if the from->to link is cut for a message sent at `sent_tick`.
  bool partitioned(NodeId from, NodeId to, Step sent_tick) const;
};

}  // namespace ssps::sim
