// Wire-damage model for the timed network's corrupting links.
//
// CodecCorrupter implements sim::Corrupter through the real codec: the
// message is serialized with encode_message, the bytes are mangled, and
// the result goes through decode_message — so every corrupted send
// exercises the exact decode path a remote peer would run. Most manglings
// trip the frame checksum or a structural check and are rejected (the
// Network counts them under Metrics::total_rejected); one mode recomputes
// the CRC after scrambling the payload, so a fraction decodes into a
// valid-but-different message the protocol must stabilize around.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sim/link.hpp"
#include "wire/codec.hpp"

namespace ssps::wire {

/// Damages an encoded frame in place: bit flips, truncation, garbage
/// splice, or payload scramble with a recomputed (passing) checksum.
/// Every mode draws only from `rng`, so a fault schedule replays
/// deterministically. `bytes` may come back empty (full truncation).
void mangle(std::vector<std::uint8_t>& bytes, ssps::Rng& rng);

/// sim::Corrupter backed by the wire codec (see file comment).
class CodecCorrupter final : public sim::Corrupter {
 public:
  sim::PooledMsg corrupt(const sim::Message& m, sim::MessagePool& pool,
                         ssps::Rng& rng) override;

  /// Manglings that still decoded (delivered as a different message).
  std::uint64_t survived() const { return survived_; }
  /// Manglings the decoder caught, by DecodeStatus (dense index).
  const std::vector<std::uint64_t>& rejected_by_status() const {
    return rejected_by_status_;
  }

 private:
  std::uint64_t survived_ = 0;
  std::vector<std::uint64_t> rejected_by_status_ =
      std::vector<std::uint64_t>(8, 0);
  std::vector<std::uint8_t> scratch_;
};

}  // namespace ssps::wire
