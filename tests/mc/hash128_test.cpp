// The model checker's fingerprint function: pinned values, no collisions
// on structured inputs, and avalanche.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "mc/hash128.hpp"

namespace {

using ssps::mc::Hash128;
using ssps::mc::hash128;

/// `size` bytes of a fixed pattern: byte i is (31 i + 7) mod 256.
std::vector<std::uint8_t> pattern(std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = static_cast<std::uint8_t>(31 * i + 7);
  return out;
}

TEST(Hash128, KnownAnswers) {
  // Pins the function: lengths 0 (the empty tail), 1, 16 (one full tail
  // block), 17 (a block and one byte) and 1000 (62 blocks and 8 bytes).
  EXPECT_EQ(hash128(pattern(0)), (Hash128{0x69c0d64f7c190b3eull, 0x33847670099741bbull}));
  EXPECT_EQ(hash128(pattern(1)), (Hash128{0x38da24fd4b0aba65ull, 0xe8a05b6001a4ae21ull}));
  EXPECT_EQ(hash128(pattern(16)),
            (Hash128{0x5688b13971a44665ull, 0x52ce99212dc6ed68ull}));
  EXPECT_EQ(hash128(pattern(17)),
            (Hash128{0x2e540439d1119977ull, 0xd726dab846396ceaull}));
  EXPECT_EQ(hash128(pattern(1000)),
            (Hash128{0x2f32b3b4a0536a12ull, 0xaab25e691f59cc45ull}));
}

TEST(Hash128, NoCollisionsOnStructuredInputs) {
  // About 10^6 distinct inputs that differ in a few bits each: a zeroed
  // 1 KB buffer and every single-bit flip of it, the empty input, and
  // counter fills: the counter written little-endian into the last
  // min(length, 8) bytes of a zeroed buffer of each length 1-64 (all 2^8
  // or 2^16 values for lengths 1 and 2, the first 16,384 beyond).
  std::vector<Hash128> hashes;
  std::vector<std::uint8_t> buffer(1024, 0);
  hashes.push_back(hash128(buffer));
  for (std::size_t bit = 0; bit < 8 * buffer.size(); ++bit) {
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    hashes.push_back(hash128(buffer));
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  hashes.push_back(hash128(std::vector<std::uint8_t>{}));
  for (std::size_t length = 1; length <= 64; ++length) {
    const std::size_t width = std::min<std::size_t>(length, 8);
    const std::uint64_t values = length == 1 ? 256 : length == 2 ? 65536 : 16384;
    std::vector<std::uint8_t> fill(length, 0);
    for (std::uint64_t counter = 0; counter < values; ++counter) {
      for (std::size_t i = 0; i < width; ++i) {
        fill[length - width + i] = static_cast<std::uint8_t>(counter >> (8 * i));
      }
      hashes.push_back(hash128(fill));
    }
  }
  ASSERT_GT(hashes.size(), 1'000'000u);
  // Neither word repeats on its own either: among 10^6 inputs a 64-bit
  // word collides by chance with probability about 3e-8, so a repeat
  // would show a lane that loses differences these inputs carry.
  for (const bool hi : {true, false}) {
    std::vector<std::uint64_t> words;
    words.reserve(hashes.size());
    for (const Hash128& h : hashes) words.push_back(hi ? h.hi : h.lo);
    std::sort(words.begin(), words.end());
    const auto repeat = std::adjacent_find(words.begin(), words.end());
    EXPECT_EQ(repeat, words.end()) << (hi ? "hi" : "lo") << " word repeats";
  }
}

TEST(Hash128, SingleBitFlipsFlipHalfOfEachOutputWord) {
  // Over every single-bit flip of a random input of each length, each
  // output word's bits flip at an average rate close to 1/2.
  ssps::Rng rng(0xa5a1a2c4e);
  for (const std::size_t length : {8u, 16u, 17u, 64u, 130u, 1000u}) {
    SCOPED_TRACE("length " + std::to_string(length));
    std::vector<std::uint8_t> input(length);
    for (std::uint8_t& byte : input) byte = static_cast<std::uint8_t>(rng.next());
    const Hash128 base = hash128(input);
    double flipped_hi = 0;
    double flipped_lo = 0;
    for (std::size_t bit = 0; bit < 8 * length; ++bit) {
      input[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const Hash128 h = hash128(input);
      input[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      flipped_hi += std::popcount(h.hi ^ base.hi);
      flipped_lo += std::popcount(h.lo ^ base.lo);
    }
    const double samples = 64.0 * 8.0 * static_cast<double>(length);
    EXPECT_GT(flipped_hi / samples, 0.45);
    EXPECT_LT(flipped_hi / samples, 0.55);
    EXPECT_GT(flipped_lo / samples, 0.45);
    EXPECT_LT(flipped_lo / samples, 0.55);
  }
}

}  // namespace
