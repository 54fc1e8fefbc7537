#include "pubsub/bitstring.hpp"

#include <bit>
#include <cstring>

#include "common/assert.hpp"

namespace ssps::pubsub {

void BitString::grow_words(std::size_t n) {
  if (n <= kInlineWords) return;  // sbo_ already covers it (zero on construction)
  if (overflow_.empty()) {
    overflow_.reserve(n);
    overflow_.assign(sbo_, sbo_ + kInlineWords);
  }
  overflow_.resize(n, 0);
}

BitString BitString::from_string(const std::string& s) {
  BitString out;
  for (char c : s) {
    SSPS_ASSERT_MSG(c == '0' || c == '1', "BitString::from_string: bad character");
    out.push_back(c == '1');
  }
  return out;
}

BitString BitString::from_bytes(std::span<const std::uint8_t> data, std::size_t bits) {
  SSPS_ASSERT(bits <= data.size() * 8);
  BitString out;
  out.len_ = bits;
  const std::size_t n = out.word_count();
  out.grow_words(n);
  std::uint64_t* w = out.words();
  // Byte i lands in word i / 8, most significant byte first.
  const std::size_t nbytes = (bits + 7) / 8;
  for (std::size_t i = 0; i < nbytes; ++i) {
    w[i / 8] |= static_cast<std::uint64_t>(data[i]) << (56 - 8 * (i % 8));
  }
  // Zero the bits past `bits` that the last byte brought in.
  const std::size_t rem = bits % 64;
  if (rem != 0) w[n - 1] &= ~0ULL << (64 - rem);
  return out;
}

BitString BitString::from_uint(std::uint64_t value, std::size_t bits) {
  SSPS_ASSERT(bits <= 64);
  BitString out;
  for (std::size_t i = 0; i < bits; ++i) {
    out.push_back((value >> (bits - 1 - i)) & 1ULL);
  }
  return out;
}

BitString BitString::from_words(std::span<const std::uint64_t> words, std::size_t bits) {
  SSPS_ASSERT(bits <= words.size() * 64);
  BitString out;
  out.len_ = bits;
  const std::size_t n = out.word_count();
  out.grow_words(n);
  std::uint64_t* w = out.words();
  for (std::size_t i = 0; i < n; ++i) w[i] = words[i];
  const std::size_t rem = bits % 64;
  if (rem != 0) w[n - 1] &= ~0ULL << (64 - rem);
  return out;
}

bool BitString::bit(std::size_t i) const {
  SSPS_ASSERT(i < len_);
  return (words()[i / 64] >> (63 - (i % 64))) & 1ULL;
}

void BitString::push_back(bool b) {
  if (len_ % 64 == 0) {
    const std::size_t idx = len_ / 64;
    grow_words(idx + 1);
    words()[idx] = 0;
  }
  if (b) words()[len_ / 64] |= (1ULL << (63 - (len_ % 64)));
  ++len_;
}

void BitString::append(const BitString& other) {
  // Simple bit-by-bit append; labels are short, keys at most a few words.
  for (std::size_t i = 0; i < other.len_; ++i) push_back(other.bit(i));
}

BitString BitString::prefix(std::size_t k) const {
  SSPS_ASSERT(k <= len_);
  BitString out;
  out.len_ = k;
  out.grow_words((k + 63) / 64);
  std::uint64_t* w = out.words();
  const std::size_t n = (k + 63) / 64;
  for (std::size_t i = 0; i < n; ++i) w[i] = words()[i];
  // Clear bits past k in the last word.
  const std::size_t rem = k % 64;
  if (rem != 0 && n > 0) w[n - 1] &= ~0ULL << (64 - rem);
  return out;
}

BitString BitString::with_bit(bool b) const {
  BitString out = *this;
  out.push_back(b);
  return out;
}

std::size_t BitString::common_prefix_len(const BitString& other) const {
  const std::size_t limit = len_ < other.len_ ? len_ : other.len_;
  std::size_t i = 0;
  const std::size_t nwords = (limit + 63) / 64;
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t x = a[w] ^ b[w];
    if (x != 0) {
      i = w * 64 + static_cast<std::size_t>(std::countl_zero(x));
      return i < limit ? i : limit;
    }
  }
  return limit;
}

bool BitString::is_prefix_of(const BitString& other) const {
  return len_ <= other.len_ && common_prefix_len(other) == len_;
}

bool BitString::operator==(const BitString& other) const {
  if (len_ != other.len_) return false;
  const std::size_t n = word_count();
  return std::memcmp(words(), other.words(), n * sizeof(std::uint64_t)) == 0;
}

std::strong_ordering BitString::operator<=>(const BitString& other) const {
  const std::size_t cpl = common_prefix_len(other);
  if (cpl == len_ && cpl == other.len_) return std::strong_ordering::equal;
  if (cpl == len_) return std::strong_ordering::less;     // we are a proper prefix
  if (cpl == other.len_) return std::strong_ordering::greater;
  return bit(cpl) ? std::strong_ordering::greater : std::strong_ordering::less;
}

std::string BitString::to_string() const {
  std::string s(len_, '0');
  for (std::size_t i = 0; i < len_; ++i) {
    if (bit(i)) s[i] = '1';
  }
  return s;
}

std::vector<std::uint8_t> BitString::to_bytes() const {
  std::vector<std::uint8_t> out((len_ + 7) / 8);
  write_bytes(out);
  return out;
}

std::size_t BitString::write_bytes(std::span<std::uint8_t> out) const {
  const std::size_t nbytes = (len_ + 7) / 8;
  SSPS_ASSERT(out.size() >= nbytes);
  // Trailing unused bits are zero, so the last byte comes out padded.
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < nbytes; ++i) {
    out[i] = static_cast<std::uint8_t>(w[i / 8] >> (56 - 8 * (i % 8)));
  }
  return nbytes;
}

std::size_t BitString::hash_value() const noexcept {
  // FNV-1a over the words plus the length.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const std::uint64_t* w = words();
  const std::size_t n = word_count();
  for (std::size_t i = 0; i < n; ++i) mix(w[i]);
  mix(len_);
  return static_cast<std::size_t>(h);
}

}  // namespace ssps::pubsub
