// Tests for the bit-string library (src/pubsub/bitstring.hpp).
#include "pubsub/bitstring.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace ssps::pubsub {
namespace {

TEST(BitString, EmptyByDefault) {
  BitString b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.to_string(), "");
}

TEST(BitString, FromStringRoundTrip) {
  for (const char* s : {"0", "1", "01", "10", "0110", "111000111",
                        "010101010101010101010101010101010101010101"}) {
    EXPECT_EQ(BitString::from_string(s).to_string(), s);
  }
}

TEST(BitString, PushBackBuildsMsbFirst) {
  BitString b;
  b.push_back(true);
  b.push_back(false);
  b.push_back(true);
  EXPECT_EQ(b.to_string(), "101");
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(1));
  EXPECT_TRUE(b.bit(2));
}

TEST(BitString, CrossesWordBoundaries) {
  BitString b;
  std::string expect;
  ssps::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const bool bit = rng.chance(1, 2);
    b.push_back(bit);
    expect.push_back(bit ? '1' : '0');
  }
  EXPECT_EQ(b.to_string(), expect);
  EXPECT_EQ(b.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(b.bit(i), expect[i] == '1');
  }
}

TEST(BitString, FromUint) {
  EXPECT_EQ(BitString::from_uint(0b1011, 4).to_string(), "1011");
  EXPECT_EQ(BitString::from_uint(1, 8).to_string(), "00000001");
  EXPECT_EQ(BitString::from_uint(0, 3).to_string(), "000");
}

TEST(BitString, FromBytesTakesMsbFirst) {
  const std::uint8_t data[] = {0xA5, 0x0F};  // 10100101 00001111
  EXPECT_EQ(BitString::from_bytes(data, 12).to_string(), "101001010000");
}

TEST(BitString, ToBytesPadsWithZeros) {
  const BitString b = BitString::from_string("10100101" "0000");
  const auto bytes = b.to_bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xA5);
  EXPECT_EQ(bytes[1], 0x00);
}

TEST(BitString, BytePackingMatchesBitByBitReference) {
  // Every length 0-300: inline and overflow storage, byte and non-byte
  // lengths. The source bytes past `bits` are random, so from_bytes must
  // zero the tail for == and hash_value to agree with from_string.
  Rng rng(3);
  std::vector<std::uint8_t> data(38);
  for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::size_t bits = 0; bits <= 300; ++bits) {
    std::string ref;
    std::vector<std::uint8_t> packed((bits + 7) / 8, 0);
    for (std::size_t i = 0; i < bits; ++i) {
      const bool b = (data[i / 8] >> (7 - i % 8)) & 1U;
      ref.push_back(b ? '1' : '0');
      if (b) packed[i / 8] |= static_cast<std::uint8_t>(1U << (7 - i % 8));
    }
    const BitString fast = BitString::from_bytes(data, bits);
    const BitString slow = BitString::from_string(ref);
    ASSERT_EQ(fast.to_string(), ref) << bits;
    ASSERT_EQ(fast, slow) << bits;
    ASSERT_EQ(fast.hash_value(), slow.hash_value()) << bits;
    ASSERT_EQ(fast.to_bytes(), packed) << bits;
    ASSERT_EQ(slow.to_bytes(), packed) << bits;
    std::vector<std::uint8_t> written(packed.size() + 1, 0xEE);
    ASSERT_EQ(slow.write_bytes(written), packed.size()) << bits;
    ASSERT_EQ(written.back(), 0xEE) << bits;  // nothing past the packed bytes
    written.pop_back();
    ASSERT_EQ(written, packed) << bits;
  }
}

TEST(BitString, PrefixAndWithBit) {
  const BitString b = BitString::from_string("110101");
  EXPECT_EQ(b.prefix(0).to_string(), "");
  EXPECT_EQ(b.prefix(3).to_string(), "110");
  EXPECT_EQ(b.prefix(6).to_string(), "110101");
  EXPECT_EQ(b.prefix(3).with_bit(true).to_string(), "1101");
  EXPECT_EQ(b.prefix(3).with_bit(false).to_string(), "1100");
}

TEST(BitString, PrefixClearsTrailingBitsForEquality) {
  // prefix() must zero the dead bits so == (word compare) works.
  const BitString a = BitString::from_string("1111").prefix(2);
  const BitString b = BitString::from_string("1100").prefix(2);
  EXPECT_EQ(a, b);
}

TEST(BitString, CommonPrefixLen) {
  const BitString a = BitString::from_string("110101");
  EXPECT_EQ(a.common_prefix_len(BitString::from_string("110110")), 4u);
  EXPECT_EQ(a.common_prefix_len(BitString::from_string("0")), 0u);
  EXPECT_EQ(a.common_prefix_len(a), 6u);
  EXPECT_EQ(a.common_prefix_len(BitString::from_string("1101")), 4u);
  EXPECT_EQ(a.common_prefix_len(BitString{}), 0u);
}

TEST(BitString, CommonPrefixLenAcrossWords) {
  std::string s(150, '1');
  const BitString a = BitString::from_string(s);
  std::string t = s;
  t[97] = '0';
  EXPECT_EQ(a.common_prefix_len(BitString::from_string(t)), 97u);
}

TEST(BitString, IsPrefixOf) {
  const BitString a = BitString::from_string("1101");
  EXPECT_TRUE(BitString{}.is_prefix_of(a));
  EXPECT_TRUE(BitString::from_string("11").is_prefix_of(a));
  EXPECT_TRUE(a.is_prefix_of(a));
  EXPECT_FALSE(BitString::from_string("10").is_prefix_of(a));
  EXPECT_FALSE(BitString::from_string("11011").is_prefix_of(a));
}

TEST(BitString, LexicographicOrdering) {
  EXPECT_LT(BitString::from_string("0"), BitString::from_string("1"));
  EXPECT_LT(BitString::from_string("01"), BitString::from_string("1"));
  EXPECT_LT(BitString::from_string("1"), BitString::from_string("11"));  // prefix first
  EXPECT_LT(BitString::from_string("011"), BitString::from_string("10"));
  EXPECT_EQ(BitString::from_string("0101") <=> BitString::from_string("0101"),
            std::strong_ordering::equal);
}

TEST(BitString, EqualityDistinguishesLength) {
  EXPECT_NE(BitString::from_string("0"), BitString::from_string("00"));
  EXPECT_NE(BitString::from_string("1"), BitString::from_string("10"));
}

TEST(BitString, HashDistinguishesLengthAndContent) {
  EXPECT_NE(BitString::from_string("0").hash_value(),
            BitString::from_string("00").hash_value());
  EXPECT_NE(BitString::from_string("01").hash_value(),
            BitString::from_string("10").hash_value());
  EXPECT_EQ(BitString::from_string("0110").hash_value(),
            BitString::from_string("0110").hash_value());
}

TEST(BitString, AppendConcatenates) {
  BitString a = BitString::from_string("110");
  a.append(BitString::from_string("011"));
  EXPECT_EQ(a.to_string(), "110011");
}

}  // namespace
}  // namespace ssps::pubsub
