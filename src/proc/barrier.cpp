#include "proc/barrier.hpp"

#include <algorithm>

namespace ssps::proc {

BarrierTracker::BarrierTracker(std::size_t shards)
    : acked_(shards, 0),
      dead_(shards, 0),
      relays_seen_(shards, 0),
      relays_claimed_(shards, 0) {}

void BarrierTracker::begin_round(std::uint64_t round) {
  round_ = round;
  digest_.reset();
  std::fill(acked_.begin(), acked_.end(), 0);
  std::fill(relays_seen_.begin(), relays_seen_.end(), 0);
  std::fill(relays_claimed_.begin(), relays_claimed_.end(), 0);
}

BarrierTracker::Ack BarrierTracker::round_done(std::size_t shard,
                                               std::uint64_t round,
                                               std::uint64_t digest) {
  if (round < round_) return Ack::kStale;
  if (round > round_) {
    diverged_ = true;
    return Ack::kWrongRound;
  }
  if (digest_ && digest != *digest_) {
    diverged_ = true;
    return Ack::kDigestMismatch;
  }
  if (acked_[shard] != 0) return Ack::kDuplicate;
  acked_[shard] = 1;
  digest_ = digest;
  return Ack::kAccepted;
}

void BarrierTracker::mark_dead(std::size_t shard) { dead_[shard] = 1; }

void BarrierTracker::mark_alive(std::size_t shard) {
  dead_[shard] = 0;
  acked_[shard] = 0;
  relays_seen_[shard] = 0;
  relays_claimed_[shard] = 0;
}

bool BarrierTracker::complete() const {
  for (std::size_t s = 0; s < acked_.size(); ++s) {
    if (dead_[s] != 0) continue;
    if (acked_[s] == 0) return false;
  }
  return true;
}

bool BarrierTracker::verify_relay_counts() {
  for (std::size_t s = 0; s < acked_.size(); ++s) {
    if (dead_[s] != 0 || acked_[s] == 0) continue;
    if (relays_seen_[s] != relays_claimed_[s]) {
      diverged_ = true;
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> BarrierTracker::missing() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < acked_.size(); ++s) {
    if (dead_[s] == 0 && acked_[s] == 0) out.push_back(s);
  }
  return out;
}

}  // namespace ssps::proc
