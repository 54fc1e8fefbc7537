#include "pubsub/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/assert.hpp"
#include "pubsub/sha256_compress.hpp"

namespace ssps::pubsub {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// The eight-word chaining state (a, b, ..., h).
using State = std::array<std::uint32_t, 8>;

constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

/// The padding block that follows a 64-byte message: 0x80, zeros, and the
/// big-endian bit length 512.
constexpr std::array<std::uint8_t, 64> kPadAfterOneBlock = [] {
  std::array<std::uint8_t, 64> block{};
  block[0] = 0x80;
  block[62] = 0x02;
  return block;
}();

std::uint32_t rotr(std::uint32_t x, int k) { return std::rotr(x, k); }

void store_le64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

#if defined(__x86_64__)

// Compiles a function for the SHA extensions. Such a function runs only
// after CPUID has reported them (sha256::hardware_compressor()).
#define SSPS_SHA_NI __attribute__((target("sha,sse4.1,ssse3")))

// The SHA instructions hold the state in two registers, ABEF and CDGH
// (named from the high lane down), and run two rounds per sha256rnds2.

/// Rounds i..i+3 over the schedule words W[i..i+3] in `w`.
SSPS_SHA_NI inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w, int i) {
  const __m128i k =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants.data() + i));
  const __m128i wk = _mm_add_epi32(w, k);
  // Two rounds turn the old ABEF into the new CDGH, so the registers
  // trade roles between the halves.
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Schedule words W[t..t+3] from W[t-16..t-1], held oldest first in w0..w3.
SSPS_SHA_NI inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i partial =
      _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(partial, w3);
}

SSPS_SHA_NI void compress_x86(std::uint32_t* s, const std::uint8_t* p, std::size_t n) {
  const auto load = [](const void* from) {
    return _mm_loadu_si128(static_cast<const __m128i*>(from));
  };
  const __m128i cdab = _mm_shuffle_epi32(load(s), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(load(s + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  // Message words are big-endian.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = _mm_shuffle_epi8(load(p), byte_swap);
    __m128i w1 = _mm_shuffle_epi8(load(p + 16), byte_swap);
    __m128i w2 = _mm_shuffle_epi8(load(p + 32), byte_swap);
    __m128i w3 = _mm_shuffle_epi8(load(p + 48), byte_swap);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 4);
    four_rounds(abef, cdgh, w2, 8);
    four_rounds(abef, cdgh, w3, 12);
    for (int i = 16; i < 64; i += 16) {
      w0 = next_words(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, i);
      w1 = next_words(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, i + 4);
      w2 = next_words(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, i + 8);
      w3 = next_words(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, i + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  const __m128i dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  const __m128i hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(s + 4), hgfe);
}

#undef SSPS_SHA_NI

#endif  // defined(__x86_64__)

/// The compressor this process uses, chosen once from CPUID.
void compress(State& state, const std::uint8_t* blocks, std::size_t n) {
  static const sha256::Compressor chosen = [] {
    const sha256::Compressor hardware = sha256::hardware_compressor();
    return hardware != nullptr ? hardware : sha256::compress_portable;
  }();
  chosen(state.data(), blocks, n);
}

Digest to_digest(const State& state) {
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return out;
}

}  // namespace

namespace sha256 {

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
  for (; n > 0; --n, blocks += 64) {
    std::array<std::uint32_t, 64> w;
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t x = w[i - 15];
      const std::uint32_t y = w[i - 2];
      const std::uint32_t s0 = rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
      const std::uint32_t s1 = rotr(y, 17) ^ rotr(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Compressor hardware_compressor() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return nullptr;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  return (ebx & bit_SHA) != 0 ? compress_x86 : nullptr;  // leaf 7, EBX bit 29
#else
  return nullptr;
#endif
}

}  // namespace sha256

Sha256::Sha256() : state_(kInitialState), buffer_{} {}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  SSPS_ASSERT(!finished_);
  total_bytes_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (left == 0) return *this;
  if (buffered_ > 0) {
    // Complete the buffered head first.
    const std::size_t take = std::min(left, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < buffer_.size()) return *this;
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the input, then buffer the tail.
  const std::size_t blocks = left / 64;
  if (blocks > 0) compress(state_, in, blocks);
  in += blocks * 64;
  left -= blocks * 64;
  if (left > 0) std::memcpy(buffer_.data(), in, left);
  buffered_ = left;
  return *this;
}

Sha256& Sha256::update(std::string_view data) {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::finish() {
  SSPS_ASSERT(!finished_);
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  compress(state_, buffer_.data(), 1);
  return to_digest(state_);
}

Digest Sha256::digest(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view data) {
  return fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest hash_label(const BitString& label) {
  return hash_label(label.word_span(), label.size());
}

Digest hash_label(std::span<const std::uint64_t> words, std::size_t bits) {
  // The bit length (8 bytes, little-endian), then the label packed into
  // (bits + 7) / 8 bytes, MSB first, the last byte zero-padded.
  SSPS_ASSERT(bits <= 256 && bits <= words.size() * 64);
  std::array<std::uint8_t, 8 + 32> input{};
  store_le64(input.data(), bits);
  const std::size_t packed = (bits + 7) / 8;
  for (std::size_t i = 0; i < packed; ++i) {
    input[8 + i] = static_cast<std::uint8_t>(words[i / 8] >> (56 - 8 * (i % 8)));
  }
  if (bits % 8 != 0) {
    input[8 + packed - 1] &= static_cast<std::uint8_t>(0xFF << (8 - bits % 8));
  }
  Sha256 h;
  h.update(std::span<const std::uint8_t>(input.data(), 8 + packed));
  return h.finish();
}

Digest hash_children(const Digest& left, const Digest& right) {
  // The 64-byte message is exactly one block; its padding is the next.
  std::array<std::uint8_t, 64> block{};
  std::memcpy(block.data(), left.data(), left.size());
  std::memcpy(block.data() + left.size(), right.data(), right.size());
  State state = kInitialState;
  compress(state, block.data(), 1);
  compress(state, kPadAfterOneBlock.data(), 1);
  return to_digest(state);
}

Digest publication_digest(sim::NodeId origin, std::string_view payload) {
  Sha256 h;
  std::array<std::uint8_t, 8> id_bytes;
  store_le64(id_bytes.data(), origin.value);
  h.update(std::span<const std::uint8_t>(id_bytes.data(), id_bytes.size()));
  h.update(payload);
  return h.finish();
}

BitString publication_key(const Digest& digest, std::size_t m) {
  SSPS_ASSERT(m >= 1 && m <= 256);
  return BitString::from_bytes(digest, m);
}

BitString publication_key(sim::NodeId origin, std::string_view payload, std::size_t m) {
  return publication_key(publication_digest(origin, payload), m);
}

std::string to_hex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xF]);
  }
  return out;
}

}  // namespace ssps::pubsub
