// Wire codec: frame round-trips, totality over damaged inputs, clone
// fidelity, and the corrupting-link damage model.
#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/messages.hpp"
#include "pubsub/pubsub_node.hpp"
#include "pubsub/topics.hpp"
#include "sim/message_pool.hpp"
#include "wire/codec.hpp"
#include "wire/corrupt.hpp"

namespace ssps::wire {
namespace {

namespace cmsg = ssps::core::msg;
namespace pmsg = ssps::pubsub::msg;
using ssps::core::IntroFlag;
using ssps::core::Label;
using ssps::core::LabeledRef;
using ssps::pubsub::BitString;
using ssps::pubsub::Digest;
using ssps::pubsub::NodeSummary;
using ssps::pubsub::PatriciaTrie;
using ssps::pubsub::Payload;
using ssps::pubsub::Publication;
using ssps::pubsub::TopicEnvelope;
using ssps::sim::MessagePool;
using ssps::sim::NodeId;
using ssps::sim::PooledMsg;

Digest fill_digest(std::uint8_t seed) {
  Digest d;
  for (std::size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<std::uint8_t>(seed + i);
  }
  return d;
}

/// One instance of every concrete protocol message class, including the
/// optional-field corner cases (SetData with and without fields) and a
/// nested envelope. Every wire/clone test iterates this set so a new
/// message class that misses coverage fails the count check below.
std::vector<std::pair<std::string, PooledMsg>> all_samples(MessagePool& pool) {
  const Label label0 = Label::from_index(0);
  const Label label3 = Label::from_index(3);
  const LabeledRef ref{label3, NodeId{7}};

  std::vector<NodeSummary> tuples;
  tuples.push_back(NodeSummary{BitString::from_uint(0b101, 3), fill_digest(1)});
  tuples.push_back(NodeSummary{BitString::from_uint(0b1100, 4), fill_digest(9)});
  std::vector<Publication> pubs;
  pubs.push_back(Publication{NodeId{11}, "breaking news", 0});
  pubs.push_back(Publication{NodeId{12}, "", 0});

  std::vector<std::pair<std::string, PooledMsg>> out;
  out.emplace_back("Subscribe", pool.make<cmsg::Subscribe>(NodeId{2}));
  out.emplace_back("Unsubscribe", pool.make<cmsg::Unsubscribe>(NodeId{3}));
  out.emplace_back("GetConfiguration",
                   pool.make<cmsg::GetConfiguration>(NodeId{4}, NodeId{5}));
  out.emplace_back("SetData", pool.make<cmsg::SetData>(
                                  ref, label0, LabeledRef{label0, NodeId{9}}));
  out.emplace_back("SetData-evict",
                   pool.make<cmsg::SetData>(std::nullopt, std::nullopt, std::nullopt));
  out.emplace_back("Check", pool.make<cmsg::Check>(ref, label0, IntroFlag::kCyclic));
  out.emplace_back("Introduce", pool.make<cmsg::Introduce>(ref, IntroFlag::kLinear));
  out.emplace_back("RemoveConnections", pool.make<cmsg::RemoveConnections>(NodeId{6}));
  out.emplace_back("IntroduceShortcut", pool.make<cmsg::IntroduceShortcut>(ref));
  out.emplace_back("CheckTrie", pool.make<pmsg::CheckTrie>(NodeId{8}, tuples));
  out.emplace_back("CheckAndPublish",
                   pool.make<pmsg::CheckAndPublish>(NodeId{8}, tuples,
                                                    BitString::from_uint(0b10, 2)));
  out.emplace_back("Publish", pool.make<pmsg::Publish>(pubs));
  out.emplace_back("PublishNew",
                   pool.make<pmsg::PublishNew>(Publication{NodeId{13}, "x", 0}));
  out.emplace_back("TopicEnvelope",
                   pool.make<TopicEnvelope>(42, pool.make<cmsg::Subscribe>(NodeId{2})));
  out.emplace_back(
      "TopicEnvelope-nested",
      pool.make<TopicEnvelope>(
          1, pool.make<TopicEnvelope>(2, pool.make<cmsg::RemoveConnections>(NodeId{3}))));
  out.emplace_back("Hello", pool.make<ssps::wire::Hello>(
                                ssps::wire::kProtocolVersion, NodeId{21}));
  return out;
}

std::vector<std::uint8_t> encode_or_die(const sim::Message& m) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(encode_message(m, bytes));
  return bytes;
}

TEST(WireCodec, EveryMessageRoundTripsBitExactly) {
  MessagePool pool;
  auto samples = all_samples(pool);
  // 14 wire types + the two extra field-shape variants.
  EXPECT_EQ(samples.size(), 16u);
  for (const auto& [name, msg] : samples) {
    SCOPED_TRACE(name);
    const std::vector<std::uint8_t> bytes = encode_or_die(*msg);
    ASSERT_GE(bytes.size(), 13u);  // frame header is 13 bytes
    MessagePool decode_pool;
    DecodeResult result = decode_message(bytes, decode_pool);
    ASSERT_TRUE(result.ok()) << decode_status_name(result.error.status);
    EXPECT_EQ(encode_or_die(*result.msg), bytes);
  }
}

TEST(WireCodec, TruncationAtEveryPrefixIsRejectedCleanly) {
  MessagePool pool;
  for (const auto& [name, msg] : all_samples(pool)) {
    SCOPED_TRACE(name);
    const std::vector<std::uint8_t> bytes = encode_or_die(*msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      MessagePool decode_pool;
      DecodeResult result =
          decode_message({bytes.data(), cut}, decode_pool);
      EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes decoded";
      EXPECT_NE(result.error.status, DecodeStatus::kOk);
    }
  }
}

TEST(WireCodec, EverySingleBitFlipIsRejectedOrRoundTrips) {
  MessagePool pool;
  for (const auto& [name, msg] : all_samples(pool)) {
    SCOPED_TRACE(name);
    const std::vector<std::uint8_t> bytes = encode_or_die(*msg);
    for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      MessagePool decode_pool;
      DecodeResult result = decode_message(flipped, decode_pool);
      if (result.ok()) {
        // A flip in the ignored stream residue can survive; the decoded
        // frame must still re-encode to the bytes it consumed.
        std::vector<std::uint8_t> reencoded = encode_or_die(*result.msg);
        ASSERT_LE(reencoded.size(), flipped.size());
        EXPECT_EQ(0, std::memcmp(reencoded.data(), flipped.data(), reencoded.size()));
      }
    }
  }
}

TEST(WireCodec, ChecksumCoversTypeByte) {
  MessagePool pool;
  std::vector<std::uint8_t> bytes =
      encode_or_die(*pool.make<cmsg::Subscribe>(NodeId{2}));
  // Subscribe and Unsubscribe share a payload shape; without the type
  // byte under the CRC this swap would decode as a clean Unsubscribe.
  bytes[0] = static_cast<std::uint8_t>(WireType::kUnsubscribe);
  MessagePool decode_pool;
  DecodeResult result = decode_message(bytes, decode_pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, DecodeStatus::kBadChecksum);
}

TEST(WireCodec, UnknownTypeByteIsRejected) {
  MessagePool pool;
  std::vector<std::uint8_t> bytes =
      encode_or_die(*pool.make<cmsg::Subscribe>(NodeId{2}));
  bytes[0] = 200;
  // Re-seal the CRC so the failure is attributed to the type, not the sum.
  std::uint32_t crc = crc32({bytes.data(), 1});
  crc = crc32({bytes.data() + 13, bytes.size() - 13}, crc);
  for (int i = 0; i < 4; ++i) {
    bytes[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  MessagePool decode_pool;
  DecodeResult result = decode_message(bytes, decode_pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, DecodeStatus::kUnknownType);
}

TEST(WireCodec, GarbageBytesNeverDecode) {
  ssps::Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    MessagePool pool;
    DecodeResult result = decode_message(junk, pool);
    // Random junk essentially never carries a valid CRC; decode must
    // reject it with a structured status either way.
    if (!result.ok()) {
      EXPECT_NE(result.error.status, DecodeStatus::kOk);
    }
  }
}

TEST(WireCodec, EnvelopeNestingBeyondDepthLimitIsRejected) {
  MessagePool pool;
  PooledMsg msg = pool.make<cmsg::Subscribe>(NodeId{2});
  for (int depth = 0; depth <= kMaxEnvelopeDepth; ++depth) {
    msg = pool.make<TopicEnvelope>(static_cast<std::uint32_t>(depth + 1),
                                   std::move(msg));
  }
  const std::vector<std::uint8_t> bytes = encode_or_die(*msg);
  MessagePool decode_pool;
  DecodeResult result = decode_message(bytes, decode_pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, DecodeStatus::kDepthExceeded);
}

// Regression: a BitString whose packed padding bits (past the declared
// bit length) are nonzero is a second encoding of the same value; the
// decoder must insist on the canonical all-zero padding. Found by
// fuzz/decode_fuzz.cpp.
TEST(WireCodec, NonCanonicalBitStringPaddingIsRejected) {
  MessagePool pool;
  std::vector<NodeSummary> tuples;
  tuples.push_back(NodeSummary{BitString::from_uint(0b101, 3), fill_digest(1)});
  std::vector<std::uint8_t> bytes =
      encode_or_die(*pool.make<pmsg::CheckTrie>(NodeId{8}, tuples));
  // Payload layout: sender u64, count u64, label bit-length u64, packed
  // bits byte. Set a padding bit (bit 3 of a 3-bit string) and re-seal.
  const std::size_t packed_at = 13 + 8 + 8 + 8;
  ASSERT_EQ(bytes[packed_at], 0b10100000);
  bytes[packed_at] = 0b10100100;
  std::uint32_t crc = crc32({bytes.data(), 1});
  crc = crc32({bytes.data() + 13, bytes.size() - 13}, crc);
  for (int i = 0; i < 4; ++i) {
    bytes[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  MessagePool decode_pool;
  DecodeResult result = decode_message(bytes, decode_pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, DecodeStatus::kBadPayload);
}

// No payload digest crosses the wire: decoding builds fresh, unkeyed
// bodies, so the receiver keys every decoded publication from its decoded
// origin and bytes, also when those bytes were altered in flight.
TEST(WireCodec, DecodedPublicationsCarryFreshUnkeyedBodies) {
  const NodeId origin{13};
  const Publication sent{origin, Payload::keyed(origin, "breaking news"), 0};
  const Publication empty{NodeId{12}, Payload::keyed(NodeId{12}, ""), 0};
  const PatriciaTrie trie(64);
  MessagePool pool;
  std::vector<PooledMsg> msgs;
  msgs.push_back(pool.make<pmsg::PublishNew>(sent));
  msgs.push_back(pool.make<pmsg::Publish>(std::vector<Publication>{sent, empty}));
  for (const PooledMsg& msg : msgs) {
    for (const bool altered : {false, true}) {
      SCOPED_TRACE(std::string(msg->name()) + (altered ? " altered" : ""));
      std::vector<std::uint8_t> bytes = encode_or_die(*msg);
      if (altered) {
        // 'b' -> 'B' inside the payload bytes, then re-seal the CRC so the
        // frame decodes into a publication the sender never keyed.
        const std::string_view text = "breaking news";
        const auto at = std::search(bytes.begin(), bytes.end(), text.begin(), text.end());
        ASSERT_NE(at, bytes.end());
        *at = 'B';
        std::uint32_t crc = crc32({bytes.data(), 1});
        crc = crc32({bytes.data() + 13, bytes.size() - 13}, crc);
        for (int i = 0; i < 4; ++i) {
          bytes[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
        }
      }
      MessagePool decode_pool;
      DecodeResult result = decode_message(bytes, decode_pool);
      ASSERT_TRUE(result.ok()) << decode_status_name(result.error.status);
      std::vector<Publication> decoded;
      if (const auto* pn = sim::msg_cast<pmsg::PublishNew>(*result.msg)) {
        decoded.push_back(pn->pub);
      } else {
        decoded = sim::msg_cast<pmsg::Publish>(*result.msg)->pubs;
      }
      ASSERT_FALSE(decoded.empty());
      EXPECT_EQ(decoded[0].payload == sent.payload, !altered);
      for (const Publication& p : decoded) {
        EXPECT_NE(p.payload.data(), sent.payload.data());
        EXPECT_NE(p.payload.data(), empty.payload.data());
        EXPECT_FALSE(p.payload.digest_for(p.origin).has_value());
        EXPECT_EQ(trie.key_of(p), ssps::pubsub::publication_key(p.origin, p.payload, 64));
      }
    }
  }
}

TEST(WireCodec, ElementCountBombIsRejectedWithoutAllocating) {
  MessagePool pool;
  // A CheckTrie frame claiming 2^61 tuples in a 16-byte payload: the
  // decoder must bound the count by the remaining bytes, not reserve.
  std::vector<std::uint8_t> payload(16, 0);
  payload[0] = 8;                      // sender = 8
  payload[8 + 7] = 0x20;               // count = 2^61 (little-endian)
  std::vector<std::uint8_t> bytes;
  bytes.push_back(static_cast<std::uint8_t>(WireType::kCheckTrie));
  const std::uint64_t len = payload.size();
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  std::uint32_t crc = crc32({bytes.data(), 1});
  crc = crc32(payload, crc);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  MessagePool decode_pool;
  DecodeResult result = decode_message(bytes, decode_pool);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, DecodeStatus::kBadPayload);
}

/// CRC-32 (IEEE, reflected 0xEDB88320) one bit at a time, straight from
/// the definition: the reference the table-driven crc32 must match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data, std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(WireCrc32, StandardCheckValue) {
  const std::string_view check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32_bitwise(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(WireCrc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-300 cover the byte tail and many eight-byte steps; start
  // offsets 0-7 cover every alignment of the eight-byte loads. Chained
  // (crc32(b, crc32(a))) is the form every frame's checksum takes: the
  // type byte, then the payload.
  Rng rng(2024);
  std::vector<std::uint8_t> buf(8 + 300);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::uint8_t type_byte = 0x42;
  const std::uint32_t head = crc32({&type_byte, 1});
  ASSERT_EQ(head, crc32_bitwise({&type_byte, 1}));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      ASSERT_EQ(crc32(data), crc32_bitwise(data))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(crc32(data, head), crc32_bitwise(data, head))
          << "chained, offset " << offset << " len " << len;
    }
  }
}

TEST(WireClone, EveryMessageClonesIntoAForeignPoolBitExactly) {
  MessagePool pool;
  auto samples = all_samples(pool);
  EXPECT_EQ(samples.size(), 16u);
  for (const auto& [name, msg] : samples) {
    SCOPED_TRACE(name);
    const std::vector<std::uint8_t> original = encode_or_die(*msg);
    MessagePool other;
    PooledMsg clone = msg->clone_into(other);
    ASSERT_TRUE(clone);
    EXPECT_EQ(encode_or_die(*clone), original);
    EXPECT_EQ(clone->name(), msg->name());
    EXPECT_EQ(clone->wire_size(), msg->wire_size());
    // The clone is independent: both copies outlive the comparison and
    // re-encode identically again (no shared buffers were moved out).
    EXPECT_EQ(encode_or_die(*msg), original);
    EXPECT_EQ(encode_or_die(*clone), original);
  }
}

TEST(WireCorrupter, ManglingIsTotalAndCounted) {
  MessagePool pool;
  CodecCorrupter corrupter;
  ssps::Rng rng(11);
  std::uint64_t delivered = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    auto samples = all_samples(pool);
    const auto& [name, msg] = samples[rng.below(samples.size())];
    PooledMsg out = corrupter.corrupt(*msg, pool, rng);
    if (out) {
      delivered += 1;
      // Whatever survived the mangling is a real protocol message that
      // round-trips through the codec like any other.
      const std::vector<std::uint8_t> bytes = encode_or_die(*out);
      MessagePool decode_pool;
      EXPECT_TRUE(decode_message(bytes, decode_pool).ok());
    }
  }
  std::uint64_t rejected = 0;
  for (std::uint64_t n : corrupter.rejected_by_status()) rejected += n;
  EXPECT_EQ(delivered, corrupter.survived());
  EXPECT_EQ(delivered + rejected, 5000u);
  // The mangle mix is tuned so both outcomes occur: most manglings die at
  // the checksum, the scramble-past-checksum mode survives decode.
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(rejected, delivered);
}

TEST(WireCorrupter, SameRngStateProducesSameDamage) {
  MessagePool pool;
  PooledMsg msg = pool.make<cmsg::Check>(
      LabeledRef{Label::from_index(3), NodeId{7}}, Label::from_index(0),
      IntroFlag::kLinear);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    CodecCorrupter a;
    CodecCorrupter b;
    ssps::Rng rng_a(seed);
    ssps::Rng rng_b(seed);
    PooledMsg out_a = a.corrupt(*msg, pool, rng_a);
    PooledMsg out_b = b.corrupt(*msg, pool, rng_b);
    ASSERT_EQ(static_cast<bool>(out_a), static_cast<bool>(out_b));
    if (out_a) {
      EXPECT_EQ(encode_or_die(*out_a), encode_or_die(*out_b));
    }
  }
}

}  // namespace
}  // namespace ssps::wire
