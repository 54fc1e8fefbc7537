// SHA-256 against FIPS 180-4 / RFC test vectors, the portable and hardware
// compressors against each other, plus the publication keying and Merkle
// combination helpers.
#include "pubsub/hash.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "pubsub/sha256_compress.hpp"

namespace ssps::pubsub {
namespace {

/// The FIPS 180-4 padded form of `message` (0x80, zeros, big-endian bit
/// length): whole blocks for a bare compressor.
std::vector<std::uint8_t> padded(std::string_view message) {
  std::vector<std::uint8_t> out(message.begin(), message.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0);
  const std::uint64_t bits = message.size() * 8;
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

/// SHA-256 of `message` through one compressor call over all its blocks.
std::string hex_digest_with(sha256::Compressor compress, std::string_view message) {
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const std::vector<std::uint8_t> blocks = padded(message);
  compress(state, blocks.data(), blocks.size() / 64);
  std::string out;
  char word[9] = {};
  for (std::uint32_t w : state) {
    std::snprintf(word, sizeof(word), "%08x", w);
    out += word;
  }
  return out;
}

std::string random_message(Rng& rng, std::size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.below(256));
  return out;
}

struct Vector {
  std::string_view message;
  std::string_view hex;
};

constexpr Vector kFipsVectors[] = {
    {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
    {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
    {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
};

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::digest(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 56 bytes forces the length into a second padding block.
  const std::string s(56, 'x');
  const Digest a = Sha256::digest(s);
  // Incremental in odd chunks must agree.
  Sha256 h;
  h.update(s.substr(0, 13));
  h.update(s.substr(13, 29));
  h.update(s.substr(42));
  EXPECT_EQ(to_hex(h.finish()), to_hex(a));
}

TEST(Sha256, SixtyFourByteMessage) {
  const std::string s(64, 'y');
  const Digest once = Sha256::digest(s);
  Sha256 h;
  for (char c : s) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), once);
}

TEST(Sha256, UpdateSplitAtEveryPointMatchesOneShot) {
  // Covers a buffered head, whole blocks straight from the input, and a
  // buffered tail, for every split of every length up to a few blocks.
  Rng rng(11);
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::string message = random_message(rng, len);
    const Digest once = Sha256::digest(message);
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.update(std::string_view(message).substr(0, split));
      h.update(std::string_view(message).substr(split));
      ASSERT_EQ(h.finish(), once) << "len " << len << " split " << split;
    }
  }
}

TEST(Sha256Compressors, PortableMatchesFipsVectors) {
  for (const Vector& v : kFipsVectors) {
    EXPECT_EQ(hex_digest_with(sha256::compress_portable, v.message), v.hex);
  }
}

TEST(Sha256Compressors, HardwareMatchesFipsVectors) {
  const sha256::Compressor hardware = sha256::hardware_compressor();
  if (hardware == nullptr) GTEST_SKIP() << "CPUID reports no SHA extensions";
  for (const Vector& v : kFipsVectors) {
    EXPECT_EQ(hex_digest_with(hardware, v.message), v.hex);
  }
}

TEST(Sha256Compressors, HardwareMatchesPortableOnRandomMessages) {
  const sha256::Compressor hardware = sha256::hardware_compressor();
  if (hardware == nullptr) GTEST_SKIP() << "CPUID reports no SHA extensions";
  Rng rng(5);
  for (std::size_t len = 0; len <= 1000; ++len) {
    const std::string message = random_message(rng, len);
    ASSERT_EQ(hex_digest_with(hardware, message),
              hex_digest_with(sha256::compress_portable, message))
        << "len " << len;
  }
}

TEST(Sha256Compressors, DispatchedDigestMatchesPortable) {
  // Whichever compressor this process picked, Sha256 agrees with the
  // portable reference.
  Rng rng(9);
  for (std::size_t len = 0; len <= 1000; len += 7) {
    const std::string message = random_message(rng, len);
    ASSERT_EQ(to_hex(Sha256::digest(message)),
              hex_digest_with(sha256::compress_portable, message))
        << "len " << len;
  }
}

TEST(Fnv1a64, KnownValues) {
  // FNV-1a reference: fnv1a64("") = offset basis.
  EXPECT_EQ(fnv1a64(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashLabel, DistinguishesPaddingEquivalentLabels) {
  // "0" and "00" pack to the same byte; the length prefix must split them.
  EXPECT_NE(hash_label(BitString::from_string("0")),
            hash_label(BitString::from_string("00")));
  EXPECT_NE(hash_label(BitString::from_string("1")),
            hash_label(BitString::from_string("10")));
  EXPECT_EQ(hash_label(BitString::from_string("0110")),
            hash_label(BitString::from_string("0110")));
}

TEST(HashChildren, OrderMatters) {
  const Digest a = Sha256::digest("left");
  const Digest b = Sha256::digest("right");
  EXPECT_NE(hash_children(a, b), hash_children(b, a));
}

TEST(PublicationKey, FixedLength) {
  for (std::size_t m : {1u, 8u, 64u, 130u, 256u}) {
    EXPECT_EQ(publication_key(sim::NodeId{7}, "hello", m).size(), m);
  }
}

TEST(PublicationKey, DependsOnOriginAndPayload) {
  const auto k1 = publication_key(sim::NodeId{1}, "x", 64);
  const auto k2 = publication_key(sim::NodeId{2}, "x", 64);
  const auto k3 = publication_key(sim::NodeId{1}, "y", 64);
  EXPECT_NE(k1, k2);  // same payload, different publisher (§4.2: pairs)
  EXPECT_NE(k1, k3);
}

TEST(PublicationKey, PrefixConsistentAcrossLengths) {
  const auto k64 = publication_key(sim::NodeId{5}, "stable", 64);
  const auto k32 = publication_key(sim::NodeId{5}, "stable", 32);
  EXPECT_TRUE(k32.is_prefix_of(k64));
}

TEST(PublicationKey, Deterministic) {
  EXPECT_EQ(publication_key(sim::NodeId{9}, "abc", 64),
            publication_key(sim::NodeId{9}, "abc", 64));
}

// Known answers, matching an independent SHA-256: a publication key or a
// Merkle digest that moved would move every pinned report.
TEST(KnownAnswers, PublicationKey) {
  EXPECT_EQ(publication_key(sim::NodeId{7}, "p0" + std::string(30, 'x'), 64),
            BitString::from_uint(0x76be87db09d66f4cULL, 64));
}

TEST(KnownAnswers, HashLabelOf64BitKey) {
  EXPECT_EQ(to_hex(hash_label(BitString::from_uint(0x0123456789abcdefULL, 64))),
            "cf47c3cd37153a5caba5a8edb6f2e235210ce8ecfa4cd4b3cee0fdf2c3d9f99e");
}

TEST(KnownAnswers, HashChildren) {
  Digest left{};
  Digest right{};
  for (std::size_t i = 0; i < left.size(); ++i) {
    left[i] = static_cast<std::uint8_t>(i);
    right[i] = static_cast<std::uint8_t>(0xff - i);
  }
  EXPECT_EQ(to_hex(hash_children(left, right)),
            "cbd3aabe6d5a9125f0e086ced756cff43bcf46c307d73ec8c6bc5382c5640689");
}

TEST(ToHex, FormatsAllBytes) {
  Digest d{};
  d[0] = 0xAB;
  d[31] = 0x01;
  const std::string hex = to_hex(d);
  EXPECT_EQ(hex.size(), 64u);
  EXPECT_EQ(hex.substr(0, 2), "ab");
  EXPECT_EQ(hex.substr(62, 2), "01");
}

}  // namespace
}  // namespace ssps::pubsub
