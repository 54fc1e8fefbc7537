// The SHA-256 compression function (FIPS 180-4 §6.2.2) in its two
// implementations. hash.cpp picks one per process from CPUID; the tests
// compare them. Not part of the pubsub API.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ssps::pubsub::sha256 {

/// Folds `n` consecutive 64-byte blocks into the eight-word state
/// (a, b, ..., h).
using Compressor = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t n);

/// Portable C++: the fallback on every CPU, and the tests' reference.
void compress_portable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n);

/// The x86 SHA-extensions compressor when CPUID reports SHA, SSSE3 and
/// SSE4.1; nullptr otherwise, and always off x86-64.
Compressor hardware_compressor();

}  // namespace ssps::pubsub::sha256
