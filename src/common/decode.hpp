// Bounds-checked decoding of the canonical little-endian encoding.
//
// The counterpart of encode.hpp: a cursor over an immutable byte span
// whose every read is range-checked. Decoders are *total* — any byte
// string either yields values or makes a read return false; no read ever
// asserts, throws, or touches memory outside the span. This is the
// property the wire codec (src/wire) and the crash-recovery snapshot
// restore build on: both consume bytes that may have been corrupted in
// flight or on disk.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>

namespace ssps::common {

/// Forward-only cursor over a byte span. All integers are little-endian.
/// Failed reads leave the cursor where it was, so a caller can report the
/// exact offset that could not be satisfied.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}
  Decoder(const std::uint8_t* data, std::size_t size) : data_(data, size) {}

  bool u8(std::uint8_t& out) {
    if (remaining() < 1) return false;
    out = data_[pos_++];
    return true;
  }

  bool u32(std::uint32_t& out) {
    if (remaining() < 4) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& out) {
    if (remaining() < 8) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }

  /// Copies the next n bytes out (the fixed-size-field path, e.g. digests).
  bool raw(void* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  /// Borrows the next n bytes without copying; the view aliases the input
  /// span, so it is only valid while the underlying buffer lives.
  bool view(std::size_t n, std::span<const std::uint8_t>& out) {
    if (remaining() < n) return false;
    out = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }

  /// Borrows a length-prefixed byte string (u64 length + bytes) without
  /// copying; the view aliases the input span, as view() does. The
  /// declared length is validated against the remaining input.
  bool bytes(std::span<const std::uint8_t>& out) {
    std::uint64_t n = 0;
    const std::size_t mark = pos_;
    if (!u64(n) || n > remaining()) {
      pos_ = mark;
      return false;
    }
    out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  bool string(std::string& out) {
    std::uint64_t n = 0;
    const std::size_t mark = pos_;
    if (!u64(n) || n > remaining()) {
      pos_ = mark;
      return false;
    }
    out.assign(reinterpret_cast<const char*>(data_.data()) + pos_,
               static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  /// Canonical optional: presence byte (strictly 0 or 1 — anything else is
  /// malformed, keeping decode∘encode the identity), then `fn(dec, value)`.
  template <typename T, typename Fn>
  bool optional(std::optional<T>& out, Fn&& fn) {
    std::uint8_t present = 0;
    if (!u8(present) || present > 1) return false;
    if (present == 0) {
      out.reset();
      return true;
    }
    T value{};
    if (!fn(*this, value)) return false;
    out = std::move(value);
    return true;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t offset() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ssps::common
