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
//   coord   -> daemon: Relay*  (sends addressed to this daemon's shard,
//                               each the frame a sender wrote, unchanged)
//   coord   -> daemon: Restore{round, shard}*  (lockstep recovery events)
//   coord   -> daemon: RoundGo{round + 1}
//
// The coordinator counts each daemon's relays against its RoundDone and
// checks that every RoundDone of the round carries the first accepted
// one's digest. In a kill round it forwards none of the doomed daemon's
// relays and SIGKILLs it when its RoundDone arrives. The replacement
// replays the run up to that round, then rejoins on a new connection:
//
//   daemon  -> coord : Hello  (its shard)
//   coord   -> daemon: Hello
//   daemon  -> coord : Relay*, RoundDone{round, digest, relays}  (the
//                      kill round's, again)
//
// and the barrier releases as above, with a Restore for the killed shard.
// The run ends when every daemon, instead of a RoundDone, sends
//
//   daemon  -> coord : Report{json}  (byte-identical across the fleet)
//   coord   -> daemon: Shutdown
#pragma once

#include <cstdint>
#include <functional>
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
///
/// `frame` is a view, not a copy. A Relay from parse_ctrl views the
/// control frame it was parsed from, so it is valid only as long as that
/// frame is: for a frame from a FrameAssembler, until the assembler's
/// next feed.
struct Relay {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t index = 0;
  std::span<const std::uint8_t> frame;
};

/// Lockstep recovery event: after unit `round`, every replica crash+
/// recovers (through the stale-snapshot path) the alive subscribers owned
/// by `shard`.
struct Restore {
  std::uint64_t round = 0;
  std::uint64_t shard = 0;
};

/// A replica's final JSON report, byte-compared across the fleet; the
/// coordinator emits the agreed one.
struct Report {
  std::string json;
};

struct Shutdown {};

using CtrlMsg =
    std::variant<RoundGo, RoundDone, Relay, Restore, Report, Shutdown>;

/// Appends the full control frame for `msg` to `out`, its payload laid
/// out in place. A Relay's frame must not view `out` itself.
void encode_ctrl(const CtrlMsg& msg, std::vector<std::uint8_t>& out);

/// Writes a relay's inner wire frame at the end of its argument; false
/// when there is none to write.
using RelayInner = std::function<bool(std::vector<std::uint8_t>&)>;

/// The one Relay frame layout: appends to `out` the control frame of a
/// relay stamped (from, to, index) whose inner frame `inner` writes in
/// place. Returns false, appending nothing, when `inner` does.
/// encode_ctrl copies a Relay's frame through it; a replica's outbox
/// writer wire-encodes its envelopes through it.
bool append_relay(std::uint64_t from, std::uint64_t to, std::uint64_t index,
                  const RelayInner& inner, std::vector<std::uint8_t>& out);

/// A daemon writes a unit's frames in batches: frames are appended to
/// its pending write, which is written whenever this many bytes are
/// pending, and the rest at the end of its turn. A unit costs the
/// connection a few writes instead of one per relay, and the pending
/// bytes stay small.
inline constexpr std::size_t kCtrlWriteBytes = 64 * 1024;

struct CtrlParse {
  std::optional<CtrlMsg> msg;
  wire::DecodeError error;  // set when !msg

  bool ok() const { return msg.has_value(); }
};

/// Total parse of one complete control frame (as handed out by
/// FrameAssembler): checksum, type and payload structure are all
/// verified; any damage returns a structured error. Parses in place: a
/// parsed Relay views `frame` (see Relay).
CtrlParse parse_ctrl(std::span<const std::uint8_t> frame);

}  // namespace ssps::proc
