// Wire codec: framed, checksummed byte encoding of every protocol message.
//
// The canonical Message::encode payloads (the model checker's state
// fingerprint) become an actual wire format here: each message is framed
// as
//
//   [u8 wire type][u64 payload length][u32 CRC-32][payload bytes]
//
// where the CRC covers the type byte and the payload. Wire types are a
// fixed enum — NOT the runtime MsgTypeId, which is assigned in first-use
// order and differs between processes — so two processes (or a process
// and its own snapshot from a previous life) agree on every byte.
//
// decode_message is *total*: any byte string returns either a pool-
// allocated message that re-encodes to the same bytes, or a structured
// DecodeError — never UB, never an assert. That property is what the
// corrupting-link fault (src/wire/corrupt.hpp) and the decode fuzz target
// (fuzz/decode_fuzz.cpp) attack.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/message.hpp"
#include "sim/message_pool.hpp"

namespace ssps::wire {

/// Stable on-the-wire message type ids. Append-only: renumbering breaks
/// every stored snapshot and cross-version wire exchange.
enum class WireType : std::uint8_t {
  // core/ (BuildSR, Algorithms 1–4)
  kSubscribe = 1,
  kUnsubscribe = 2,
  kGetConfiguration = 3,
  kSetData = 4,
  kCheck = 5,
  kIntroduce = 6,
  kRemoveConnections = 7,
  kIntroduceShortcut = 8,
  // pubsub/ (Algorithm 5)
  kCheckTrie = 9,
  kCheckAndPublish = 10,
  kPublish = 11,
  kPublishNew = 12,
  // topic multiplexing (§4)
  kTopicEnvelope = 13,
  // net/ (deployment handshake)
  kHello = 14,
};

/// Version stamped into Hello frames. Bump on any incompatible change to
/// the frame layout or the control protocol; peers with a different
/// version are rejected at handshake time (DecodeStatus::kVersionMismatch)
/// instead of diverging mid-run.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Handshake greeting exchanged when a transport connection opens: the
/// speaker's protocol version plus the node (shard) id it claims to host.
/// A transport-level message — it never travels through the simulator —
/// but it shares the codec so the fuzzer and the total-decode guarantee
/// cover it like any protocol frame.
struct Hello final : sim::MsgBase<Hello> {
  std::uint32_t version = kProtocolVersion;
  sim::NodeId node;

  Hello(std::uint32_t v, sim::NodeId n) : version(v), node(n) {}
  std::string_view name() const override { return "Hello"; }
  std::size_t wire_size() const override { return 8 + 4 + 8; }
  bool encode(common::Encoder& e) const override {
    e.u32(version);
    e.u64(node.value);
    return true;
  }
};

/// Why a decode failed. kOk never appears in a DecodeError.
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kTruncated,      ///< input shorter than the frame header or payload claims
  kBadChecksum,    ///< CRC mismatch (bytes damaged in flight)
  kUnknownType,    ///< wire type byte outside the enum
  kBadPayload,     ///< payload structure invalid (bad label, length, flag…)
  kTrailingBytes,  ///< payload longer than the message's fields consume
  kDepthExceeded,  ///< TopicEnvelope nesting beyond kMaxEnvelopeDepth
  kVersionMismatch,  ///< Hello from a peer speaking another protocol version
  kFrameTooLarge,  ///< frame header claims a payload beyond the assembly cap
};

/// Stable kebab-case name (metrics labels, JSON reports, fuzz triage).
const char* decode_status_name(DecodeStatus s);

struct DecodeError {
  DecodeStatus status = DecodeStatus::kOk;
  /// Byte offset (into the decoded span) where the failure was detected.
  std::size_t offset = 0;
};

/// Result of decode_message: exactly one of `msg` (success) or `error`.
struct DecodeResult {
  sim::PooledMsg msg;
  DecodeError error;

  bool ok() const { return msg.get() != nullptr; }
};

/// TopicEnvelope frames nest their payload recursively; anything deeper
/// than this is rejected (the protocols never nest envelopes).
inline constexpr int kMaxEnvelopeDepth = 4;

/// CRC-32 (IEEE 802.3, reflected) over `data`, continuing from `seed`
/// (pass the previous call's return value to checksum in pieces).
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

/// The stable wire type of `m`, or nullopt for message classes outside
/// the protocol surface (test doubles).
std::optional<WireType> wire_type_of(const sim::Message& m);

/// Appends the full frame for `m` to `out`. Returns false (appending
/// nothing) when `m` has no wire type or no canonical encoding.
bool encode_message(const sim::Message& m, std::vector<std::uint8_t>& out);

/// Total decode of one frame. On success the message re-encodes to
/// byte-identical bytes; on failure `error` names the reason and offset.
DecodeResult decode_message(std::span<const std::uint8_t> bytes,
                            sim::MessagePool& pool);

}  // namespace ssps::wire
