#include "mc/hash128.hpp"

#include <bit>
#include <cstring>

namespace ssps::mc {

namespace {

// The first four words of SHA-512's initial hash value (the fractional
// parts of the square roots of 2, 3, 5 and 7): constants with balanced
// bits and nothing up the sleeve.
constexpr std::uint64_t kSeedA = 0x6a09e667f3bcc908ull;
constexpr std::uint64_t kSeedB = 0xbb67ae8584caa73bull;
constexpr std::uint64_t kKeyA = 0x3c6ef372fe94f82bull;
constexpr std::uint64_t kKeyB = 0xa54ff53a5f1d36f1ull;

/// The 128-bit product of `a` and `b`, its halves folded together.
std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<std::uint64_t>(product) ^ static_cast<std::uint64_t>(product >> 64);
}

/// MurmurHash3's 64-bit finalizer: a bijection in which every input bit
/// flips each output bit with probability close to 1/2.
std::uint64_t finalize(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? v : __builtin_bswap64(v);
}

}  // namespace

Hash128 hash128(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t a = kSeedA;
  std::uint64_t b = kSeedB;
  const auto mix = [&a, &b](std::uint64_t w0, std::uint64_t w1) {
    a = fold_mul(w0 ^ kKeyA, w1 ^ a);
    b = fold_mul(w1 ^ kKeyB, w0 ^ b);
  };
  for (; left > 16; p += 16, left -= 16) mix(load_le64(p), load_le64(p + 8));
  // The last 0-16 bytes, zero-padded to a block. The length, added last,
  // keeps inputs that differ only by trailing zeros apart: it is the one
  // difference their lanes see, and the finalizer is a bijection.
  std::uint8_t tail[16] = {};
  if (left > 0) std::memcpy(tail, p, left);
  mix(load_le64(tail), load_le64(tail + 8));
  return Hash128{finalize(a ^ bytes.size()), finalize(b ^ bytes.size())};
}

}  // namespace ssps::mc
