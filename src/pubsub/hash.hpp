// Hashing for the Merkle-Patricia publication store (§4.2).
//
// The paper requires two collision-resistant functions:
//   h̄_m : N × P* → {0,1}^m   — keys a publication (origin id, payload) to
//                               a fixed m-bit Patricia label, and
//   h   : {0,1}* → {0,1}*     — digests trie labels and combines child
//                               digests into parent digests (Merkle-style;
//                               the paper notes one-wayness is NOT needed,
//                               only collision resistance).
// We implement SHA-256 from scratch (FIPS 180-4) for both, plus FNV-1a for
// non-adversarial internal hashing. The compression function runs on the x86
// SHA extensions when CPUID reports them (sha256_compress.hpp); digests are
// identical on either path.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "pubsub/bitstring.hpp"
#include "sim/types.hpp"

namespace ssps::pubsub {

/// A SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 (FIPS 180-4). Whole blocks are compressed straight
/// from the input; only a partial head or tail is buffered.
class Sha256 {
 public:
  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);

  /// Finalizes and returns the digest; the object must not be reused.
  Digest finish();

  /// One-shot convenience.
  static Digest digest(std::span<const std::uint8_t> data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

/// FNV-1a 64-bit (fast non-cryptographic hash for internal tables).
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);
std::uint64_t fnv1a64(std::string_view data);

/// Digest of a trie-node label: h(t.label). The bit-length is folded in so
/// that labels like "0" and "00" hash differently despite equal padding.
/// Requires label.size() <= 256 (trie labels are at most m bits).
Digest hash_label(const BitString& label);

/// hash_label of the first `bits` bits of packed words laid out as
/// BitString::word_span() lays them out; bits past `bits` are ignored.
Digest hash_label(std::span<const std::uint64_t> words, std::size_t bits);

/// Merkle combination: h(c1.hash ∘ c2.hash). Inner nodes combine their
/// children's *digests*, as in Figure 2's running example, so a root digest
/// covers every leaf below it.
Digest hash_children(const Digest& left, const Digest& right);

/// SHA-256(le64(v.id) ∘ p): the digest whose first m bits are h̄_m(v.id, p).
Digest publication_digest(sim::NodeId origin, std::string_view payload);

/// The first m bits of a publication digest (m <= 256).
BitString publication_key(const Digest& digest, std::size_t m);

/// h̄_m(v.id, p): the m-bit publication key (m <= 256).
BitString publication_key(sim::NodeId origin, std::string_view payload, std::size_t m);

/// Hex rendering for diagnostics.
std::string to_hex(const Digest& d);

}  // namespace ssps::pubsub
