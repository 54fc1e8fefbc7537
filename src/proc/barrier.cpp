#include "proc/barrier.hpp"

#include <algorithm>

namespace ssps::proc {

BarrierTracker::BarrierTracker(std::size_t shards)
    : acked_(shards, 0),
      digests_(shards, 0),
      self_conflict_(shards, 0),
      dead_(shards, 0),
      relays_seen_(shards, 0),
      relays_claimed_(shards, 0) {}

void BarrierTracker::begin_round(std::uint64_t round) {
  round_ = round;
  digest_.reset();
  std::fill(acked_.begin(), acked_.end(), 0);
  std::fill(self_conflict_.begin(), self_conflict_.end(), 0);
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
  // Record before judging: once the round completes, every shard's
  // digest takes part in naming the odd ones.
  const bool first = acked_[shard] == 0;
  if (first) {
    acked_[shard] = 1;
    digests_[shard] = digest;
    if (!digest_) digest_ = digest;
  } else if (digest != digests_[shard]) {
    self_conflict_[shard] = 1;
  }
  if (digest == *digest_ && self_conflict_[shard] == 0) {
    return first ? Ack::kAccepted : Ack::kDuplicate;
  }
  diverged_ = true;
  return Ack::kDigestMismatch;
}

void BarrierTracker::mark_dead(std::size_t shard) { dead_[shard] = 1; }

void BarrierTracker::mark_alive(std::size_t shard) {
  dead_[shard] = 0;
  acked_[shard] = 0;
  self_conflict_[shard] = 0;
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

std::optional<std::uint64_t> BarrierTracker::majority_digest() const {
  std::size_t voters = 0;
  for (const std::uint8_t acked : acked_) voters += acked;
  for (std::size_t s = 0; s < acked_.size(); ++s) {
    if (acked_[s] == 0) continue;
    std::size_t votes = 0;
    for (std::size_t t = 0; t < acked_.size(); ++t) {
      votes += acked_[t] != 0 && digests_[t] == digests_[s] ? 1 : 0;
    }
    if (2 * votes > voters) return digests_[s];
  }
  return std::nullopt;
}

std::vector<std::size_t> BarrierTracker::odd_shards() const {
  const std::optional<std::uint64_t> majority = majority_digest();
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < acked_.size(); ++s) {
    if (acked_[s] == 0) continue;
    if (!majority || digests_[s] != *majority || self_conflict_[s] != 0) out.push_back(s);
  }
  return out;
}

std::vector<std::size_t> BarrierTracker::missing() const {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < acked_.size(); ++s) {
    if (dead_[s] == 0 && acked_[s] == 0) out.push_back(s);
  }
  return out;
}

}  // namespace ssps::proc
