// A fast non-cryptographic 128-bit hash: the model checker's fingerprint
// function (executor.hpp says how positions are fed to it).
//
// Two independent 64-bit lanes walk the input in 16-byte blocks. Each
// block's two little-endian words update each lane by one 64x64 -> 128-bit
// multiply whose halves are folded together by XOR; the lanes pair the
// words and constants differently, so a block that one lane's product
// happens to absorb still moves the other. The input length enters both
// lanes last, and each lane is closed by MurmurHash3's 64-bit finalizer.
// No key, no seed: the function is fixed, and the tests pin its values.
//
// It is meant for inputs nobody chooses in order to collide (protocol
// states and messages), where a 128-bit output makes two distinct inputs
// collide with probability about 2^-128. It defends against no adversary;
// use pubsub::Sha256 wherever the paper needs a cryptographic digest.
#pragma once

#include <cstdint>
#include <span>

namespace ssps::mc {

/// A 128-bit digest as two 64-bit words.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool operator==(const Hash128&) const = default;
};

/// The 128-bit hash of `bytes` (see the file header).
Hash128 hash128(std::span<const std::uint8_t> bytes);

}  // namespace ssps::mc
