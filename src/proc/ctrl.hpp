// Round-coordinator control protocol for the multi-process deployment.
//
// Control frames share the wire codec's outer shape —
// [u8 type][u64 payload length][u32 CRC]— so one FrameAssembler serves a
// connection carrying both protocol messages and control traffic; the
// type bytes live at 0x40+, far from WireType's 1..14, so neither parser
// can mistake the other's frames.
//
// The per-unit barrier exchange (all within one TCP connection per
// daemon, so ordering is guaranteed; frames are written in batches of
// kCtrlWriteBytes):
//
//   daemon  -> coord : Relay*  (its shard's cross-shard sends, lane order)
//   daemon  -> coord : RoundDone{round, digest, relays}
//   coord   -> daemon: Relay*  (sends addressed to this daemon's shard)
//   coord   -> daemon: Restore{round, shard}*  (lockstep recovery events)
//   coord   -> daemon: RoundGo{round + 1}
//
// and at end of run:
//
//   daemon  -> coord : Report{json}
//   coord   -> daemon: Shutdown
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "wire/codec.hpp"

namespace ssps::proc {

enum class CtrlType : std::uint8_t {
  kRoundGo = 0x40,
  kRoundDone = 0x41,
  kRelay = 0x42,
  kRestore = 0x43,
  kReport = 0x44,
  kShutdown = 0x45,
};

/// Barrier release: the receiver may execute unit `round`.
struct RoundGo {
  std::uint64_t round = 0;
};

/// Barrier arrival: the sender finished unit `round`, its replica state
/// digests to `digest`, and it sent `relays` Relay frames ahead of this
/// ack.
struct RoundDone {
  std::uint64_t round = 0;
  std::uint64_t digest = 0;
  std::uint64_t relays = 0;
};

/// One cross-shard message: the wire-codec frame of the envelope at
/// `index` in the sender's barrier-time lane, sent by `from` to `to`. At
/// the barrier every replica's lane holds the round's sends in send
/// order, so the index names the same envelope in each of them.
struct Relay {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t index = 0;
  std::vector<std::uint8_t> frame;
};

/// Lockstep recovery event: after unit `round`, every replica crash+
/// recovers (through the stale-snapshot path) the alive subscribers owned
/// by `shard`.
struct Restore {
  std::uint64_t round = 0;
  std::uint64_t shard = 0;
};

/// A replica's final JSON report, byte-compared across the fleet.
struct Report {
  std::string json;
};

struct Shutdown {};

using CtrlMsg =
    std::variant<RoundGo, RoundDone, Relay, Restore, Report, Shutdown>;

/// Appends the full control frame for `msg` to `out`.
void encode_ctrl(const CtrlMsg& msg, std::vector<std::uint8_t>& out);

/// Both sides write a unit's frames in batches: frames are appended with
/// encode_ctrl, written whenever this many bytes are pending, and the
/// rest at the end of the sender's turn. A unit costs each connection a
/// few writes instead of one per relay, and the pending bytes stay small.
inline constexpr std::size_t kCtrlWriteBytes = 64 * 1024;

struct CtrlParse {
  std::optional<CtrlMsg> msg;
  wire::DecodeError error;  // set when !msg

  bool ok() const { return msg.has_value(); }
};

/// Total parse of one complete control frame (as handed out by
/// FrameAssembler): checksum, type and payload structure are all
/// verified; any damage returns a structured error.
CtrlParse parse_ctrl(std::span<const std::uint8_t> frame);

}  // namespace ssps::proc
