#include "wire/codec.hpp"

#include <array>

#include "common/decode.hpp"
#include "common/encode.hpp"
#include "core/messages.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"

namespace ssps::wire {

namespace {

using common::Decoder;
using common::Encoder;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slice-by-8: eight
// tables generated at compile time. Table 0 is the classic byte table;
// table k advances a byte's contribution through k further zero bytes, so
// one step folds eight input bytes with eight independent lookups.
// ---------------------------------------------------------------------------

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrc = make_crc_tables();

/// Little-endian u32 at `p` (unaligned).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/// Appends the payload of `m` (no frame) to `e`; TopicEnvelope payloads
/// carry their inner message's wire type so the decoder can recurse.
bool encode_payload(const sim::Message& m, Encoder& e) {
  if (const auto* env = sim::msg_cast<pubsub::TopicEnvelope>(m)) {
    const auto inner_type = wire_type_of(*env->inner);
    if (!inner_type) return false;
    e.u32(env->topic);
    e.u8(static_cast<std::uint8_t>(*inner_type));
    return encode_payload(*env->inner, e);
  }
  return m.encode(e);
}

// ---------------------------------------------------------------------------
// Payload decoding. Every helper is total: it reads through the bounds-
// checked Decoder, validates every invariant the corresponding constructor
// asserts, and bounds every element count by the remaining input before
// reserving anything.
// ---------------------------------------------------------------------------

bool decode_node(Decoder& d, sim::NodeId& out) {
  std::uint64_t v = 0;
  if (!d.u64(v)) return false;
  out = sim::NodeId{v};
  return true;
}

bool decode_bits(Decoder& d, pubsub::BitString& out) {
  std::uint64_t nbits = 0;
  if (!d.u64(nbits)) return false;
  const std::uint64_t nbytes = nbits / 8 + (nbits % 8 != 0 ? 1 : 0);
  std::span<const std::uint8_t> packed;
  if (nbytes > d.remaining() || !d.view(static_cast<std::size_t>(nbytes), packed)) {
    return false;
  }
  // Canonical form: padding bits past `nbits` in the last byte are zero.
  // from_bytes would silently ignore them, so accepting set padding would
  // admit two encodings of one BitString — breaking the decode/re-encode
  // byte-identity the corpus-replay fuzzer pins.
  if (nbits % 8 != 0) {
    const std::uint8_t padding_mask =
        static_cast<std::uint8_t>(0xFF >> (nbits % 8));
    if ((packed.back() & padding_mask) != 0) return false;
  }
  out = pubsub::BitString::from_bytes(packed, static_cast<std::size_t>(nbits));
  return true;
}

bool decode_summary(Decoder& d, pubsub::NodeSummary& out) {
  if (!decode_bits(d, out.label)) return false;
  return d.raw(out.hash.data(), out.hash.size());
}

bool decode_publication(Decoder& d, pubsub::Publication& out) {
  // `born` is a telemetry stamp, not wire data (see encode_publication):
  // decoded publications are born at 0, and re-encoding skips the field,
  // so the byte round-trip is still exact. The payload becomes a fresh,
  // unkeyed body: no digest crosses the wire, so the receiver hashes it.
  std::string payload;
  if (!decode_node(d, out.origin) || !d.string(payload)) return false;
  out.payload = std::move(payload);
  return true;
}

/// Smallest possible encoding of each repeated element — the divisor that
/// bounds a declared element count by the remaining input.
constexpr std::size_t kMinSummaryBytes = 8 + 32;  // empty label + digest
constexpr std::size_t kMinPublicationBytes = 8 + 8;  // origin + empty payload

template <typename T, typename Fn>
bool decode_vector(Decoder& d, std::size_t min_element_bytes, Fn&& fn,
                   std::vector<T>& out) {
  std::uint64_t count = 0;
  if (!d.u64(count)) return false;
  if (count > d.remaining() / min_element_bytes) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    T value{};
    if (!fn(d, value)) return false;
    out.push_back(std::move(value));
  }
  return true;
}

sim::PooledMsg decode_payload(WireType type, Decoder& d, sim::MessagePool& pool,
                              DecodeError& error, int depth);

sim::PooledMsg fail(DecodeError& error, DecodeStatus status, std::size_t offset) {
  error.status = status;
  error.offset = offset;
  return {};
}

sim::PooledMsg decode_envelope(Decoder& d, sim::MessagePool& pool,
                               DecodeError& error, int depth) {
  if (depth >= kMaxEnvelopeDepth) {
    return fail(error, DecodeStatus::kDepthExceeded, d.offset());
  }
  std::uint32_t topic = 0;
  std::uint8_t inner_type = 0;
  if (!d.u32(topic) || !d.u8(inner_type)) {
    return fail(error, DecodeStatus::kBadPayload, d.offset());
  }
  sim::PooledMsg inner = decode_payload(static_cast<WireType>(inner_type), d,
                                        pool, error, depth + 1);
  if (!inner) return {};  // error already set
  return pool.make<pubsub::TopicEnvelope>(topic, std::move(inner));
}

sim::PooledMsg decode_payload(WireType type, Decoder& d, sim::MessagePool& pool,
                              DecodeError& error, int depth) {
  namespace cm = core::msg;
  namespace pm = pubsub::msg;
  const std::size_t start = d.offset();
  auto bad = [&]() { return fail(error, DecodeStatus::kBadPayload, d.offset()); };

  switch (type) {
    case WireType::kSubscribe: {
      sim::NodeId who;
      if (!decode_node(d, who)) return bad();
      return pool.make<cm::Subscribe>(who);
    }
    case WireType::kUnsubscribe: {
      sim::NodeId who;
      if (!decode_node(d, who)) return bad();
      return pool.make<cm::Unsubscribe>(who);
    }
    case WireType::kGetConfiguration: {
      sim::NodeId subject, requester;
      if (!decode_node(d, subject) || !decode_node(d, requester)) return bad();
      return pool.make<cm::GetConfiguration>(subject, requester);
    }
    case WireType::kSetData: {
      std::optional<core::LabeledRef> pred, succ;
      std::optional<core::Label> label;
      if (!d.optional(pred, core::decode_ref) ||
          !d.optional(label, core::decode_label) ||
          !d.optional(succ, core::decode_ref)) {
        return bad();
      }
      return pool.make<cm::SetData>(std::move(pred), std::move(label),
                                    std::move(succ));
    }
    case WireType::kCheck: {
      core::LabeledRef sender;
      core::Label believed;
      std::uint8_t flag = 0;
      if (!core::decode_ref(d, sender) || !core::decode_label(d, believed) ||
          !d.u8(flag) || flag > 1) {
        return bad();
      }
      return pool.make<cm::Check>(sender, believed,
                                  static_cast<core::IntroFlag>(flag));
    }
    case WireType::kIntroduce: {
      core::LabeledRef cand;
      std::uint8_t flag = 0;
      if (!core::decode_ref(d, cand) || !d.u8(flag) || flag > 1) return bad();
      return pool.make<cm::Introduce>(cand, static_cast<core::IntroFlag>(flag));
    }
    case WireType::kRemoveConnections: {
      sim::NodeId who;
      if (!decode_node(d, who)) return bad();
      return pool.make<cm::RemoveConnections>(who);
    }
    case WireType::kIntroduceShortcut: {
      core::LabeledRef cand;
      if (!core::decode_ref(d, cand)) return bad();
      return pool.make<cm::IntroduceShortcut>(cand);
    }
    case WireType::kCheckTrie: {
      sim::NodeId sender;
      std::vector<pubsub::NodeSummary> tuples;
      if (!decode_node(d, sender) ||
          !decode_vector(d, kMinSummaryBytes, decode_summary, tuples)) {
        return bad();
      }
      return pool.make<pm::CheckTrie>(sender, std::move(tuples));
    }
    case WireType::kCheckAndPublish: {
      sim::NodeId sender;
      std::vector<pubsub::NodeSummary> tuples;
      pubsub::BitString prefix;
      if (!decode_node(d, sender) ||
          !decode_vector(d, kMinSummaryBytes, decode_summary, tuples) ||
          !decode_bits(d, prefix)) {
        return bad();
      }
      return pool.make<pm::CheckAndPublish>(sender, std::move(tuples),
                                            std::move(prefix));
    }
    case WireType::kPublish: {
      std::vector<pubsub::Publication> pubs;
      if (!decode_vector(d, kMinPublicationBytes, decode_publication, pubs)) {
        return bad();
      }
      return pool.make<pm::Publish>(std::move(pubs));
    }
    case WireType::kPublishNew: {
      pubsub::Publication pub;
      if (!decode_publication(d, pub)) return bad();
      return pool.make<pm::PublishNew>(std::move(pub));
    }
    case WireType::kTopicEnvelope:
      return decode_envelope(d, pool, error, depth);
    case WireType::kHello: {
      std::uint32_t version = 0;
      std::uint64_t node = 0;
      const std::size_t version_at = d.offset();
      if (!d.u32(version) || !d.u64(node)) return bad();
      if (version != kProtocolVersion) {
        return fail(error, DecodeStatus::kVersionMismatch, version_at);
      }
      return pool.make<Hello>(version, sim::NodeId{node});
    }
  }
  return fail(error, DecodeStatus::kUnknownType, start);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^ kCrc[3][hi & 0xFFu] ^
        kCrc[2][(hi >> 8) & 0xFFu] ^ kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::size_t open_frame(std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + kFrameHeaderBytes);
  return at;
}

void seal_frame(std::uint8_t type, std::size_t at, std::vector<std::uint8_t>& out) {
  const std::size_t len = out.size() - at - kFrameHeaderBytes;
  std::uint32_t crc = crc32({&type, 1});
  crc = crc32({out.data() + at + kFrameHeaderBytes, len}, crc);
  out[at] = type;
  common::patch_le(out, at + 1, len, 8);
  common::patch_le(out, at + 9, crc, 4);
}

const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
    case DecodeStatus::kUnknownType: return "unknown-type";
    case DecodeStatus::kBadPayload: return "bad-payload";
    case DecodeStatus::kTrailingBytes: return "trailing-bytes";
    case DecodeStatus::kDepthExceeded: return "depth-exceeded";
    case DecodeStatus::kVersionMismatch: return "version-mismatch";
    case DecodeStatus::kFrameTooLarge: return "frame-too-large";
  }
  return "invalid-status";
}

std::optional<WireType> wire_type_of(const sim::Message& m) {
  namespace cm = core::msg;
  namespace pm = pubsub::msg;
  if (sim::msg_cast<cm::Subscribe>(m)) return WireType::kSubscribe;
  if (sim::msg_cast<cm::Unsubscribe>(m)) return WireType::kUnsubscribe;
  if (sim::msg_cast<cm::GetConfiguration>(m)) return WireType::kGetConfiguration;
  if (sim::msg_cast<cm::SetData>(m)) return WireType::kSetData;
  if (sim::msg_cast<cm::Check>(m)) return WireType::kCheck;
  if (sim::msg_cast<cm::Introduce>(m)) return WireType::kIntroduce;
  if (sim::msg_cast<cm::RemoveConnections>(m)) return WireType::kRemoveConnections;
  if (sim::msg_cast<cm::IntroduceShortcut>(m)) return WireType::kIntroduceShortcut;
  if (sim::msg_cast<pm::CheckTrie>(m)) return WireType::kCheckTrie;
  if (sim::msg_cast<pm::CheckAndPublish>(m)) return WireType::kCheckAndPublish;
  if (sim::msg_cast<pm::Publish>(m)) return WireType::kPublish;
  if (sim::msg_cast<pm::PublishNew>(m)) return WireType::kPublishNew;
  if (sim::msg_cast<pubsub::TopicEnvelope>(m)) return WireType::kTopicEnvelope;
  if (sim::msg_cast<Hello>(m)) return WireType::kHello;
  return std::nullopt;
}

bool encode_message(const sim::Message& m, std::vector<std::uint8_t>& out) {
  const auto type = wire_type_of(m);
  if (!type) return false;
  const std::size_t at = open_frame(out);
  Encoder payload(out);
  if (!encode_payload(m, payload)) {
    out.resize(at);
    return false;
  }
  seal_frame(static_cast<std::uint8_t>(*type), at, out);
  return true;
}

DecodeResult decode_message(std::span<const std::uint8_t> bytes,
                            sim::MessagePool& pool) {
  DecodeResult result;
  Decoder header(bytes);
  std::uint8_t type_byte = 0;
  std::uint64_t payload_len = 0;
  std::uint32_t claimed_crc = 0;
  if (!header.u8(type_byte) || !header.u64(payload_len) ||
      !header.u32(claimed_crc)) {
    result.error = {DecodeStatus::kTruncated, header.offset()};
    return result;
  }
  if (payload_len > header.remaining()) {
    result.error = {DecodeStatus::kTruncated, header.offset()};
    return result;
  }
  std::span<const std::uint8_t> payload;
  header.view(static_cast<std::size_t>(payload_len), payload);
  std::uint32_t actual = crc32({&type_byte, 1});
  actual = crc32(payload, actual);
  if (actual != claimed_crc) {
    result.error = {DecodeStatus::kBadChecksum, 9};
    return result;
  }
  // Trailing bytes after the declared payload are tolerated (a frame
  // parser reading from a stream consumes exactly the frame), but the
  // payload itself must be consumed exactly.
  Decoder d(payload);
  const std::size_t frame_header = bytes.size() - payload.size() -
                                   header.remaining();
  DecodeError error;
  result.msg = decode_payload(static_cast<WireType>(type_byte), d, pool, error, 0);
  if (!result.msg) {
    result.error = {error.status, frame_header + error.offset};
    return result;
  }
  if (!d.done()) {
    result.msg.reset();
    result.error = {DecodeStatus::kTrailingBytes, frame_header + d.offset()};
    return result;
  }
  return result;
}

}  // namespace ssps::wire
