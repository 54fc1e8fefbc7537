// Canonical little-endian state encoding.
//
// The model checker (src/mc) hashes protocol states by serializing them
// into a byte string; two states collide iff their encodings are equal, so
// the encoding must be canonical: fixed field order, fixed-width integers,
// explicit length prefixes for variable-size data, no padding, no pointers.
// This is deliberately the shape of a wire format — the ROADMAP
// multi-process item needs exactly the same property (a byte string that
// two processes agree on), so these encodings double as its first draft.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

namespace ssps::common {

/// Append-only canonical byte sink. All integers are little-endian.
///
/// An encoder either owns its buffer or appends to a caller's vector,
/// after whatever that vector already holds: the wire codec lays a
/// payload out in place behind a frame header that way. buffer(), size()
/// and clear() act on the whole target vector.
class Encoder {
 public:
  Encoder() = default;
  /// Appends to `out`, which must outlive the encoder.
  explicit Encoder(std::vector<std::uint8_t>& out) : out_(&out) {}
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  void u8(std::uint8_t v) { out_->push_back(v); }

  // Multi-byte integers are appended with one insert, not a push_back per
  // byte: each byte store may alias the vector (and this encoder), so a
  // per-byte loop reloads both after every byte.
  void u32(std::uint32_t v) {
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    raw(b, sizeof(b));
  }

  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    raw(b, sizeof(b));
  }

  /// Raw bytes, no length prefix (caller encodes the length separately
  /// when the size is not implied by context).
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

  /// Length-prefixed byte string (u64 length + bytes).
  void bytes(const void* data, std::size_t n) {
    u64(n);
    raw(data, n);
  }

  void string(std::string_view s) { bytes(s.data(), s.size()); }

  /// Canonical optional: presence byte, then the payload via `fn(enc, v)`.
  template <typename T, typename Fn>
  void optional(const std::optional<T>& v, Fn&& fn) {
    u8(v.has_value() ? 1 : 0);
    if (v.has_value()) fn(*this, *v);
  }

  const std::vector<std::uint8_t>& buffer() const { return *out_; }
  std::size_t size() const { return out_->size(); }
  void clear() { out_->clear(); }

 private:
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* out_ = &own_;
};

/// Overwrites out[at, at + bytes) with the low `bytes` bytes of `v`,
/// little-endian: fills in a length or checksum whose place was reserved
/// before the bytes it describes were encoded.
inline void patch_le(std::vector<std::uint8_t>& out, std::size_t at, std::uint64_t v,
                     int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace ssps::common
