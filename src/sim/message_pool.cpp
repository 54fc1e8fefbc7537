#include "sim/message_pool.hpp"

#include "sim/message.hpp"

namespace ssps::sim {

namespace detail {

MsgTypeId allocate_msg_type_id() {
  static MsgTypeId next = 0;
  return ++next;  // 0 stays "untagged"
}

constinit thread_local FreeLane* tls_free_lane = nullptr;

}  // namespace detail

void PooledMsg::reset() {
  // During pool teardown the sweep below destructs every live slot
  // itself; a nested owner's release must then be a no-op or the slot
  // would see its destructor twice.
  if (pool_ != nullptr && ptr_ != nullptr && !pool_->tearing_down()) {
    pool_->destroy(ptr_, handle_);
  }
  forget();
}

MessagePool::~MessagePool() {
  // Channels normally drain before the Network dies, but a mid-run
  // teardown (e.g. a test aborting a scenario) may leave live messages;
  // destroy them so their payloads (strings, vectors) are released.
  //
  // Live messages can OWN other pooled messages (TopicEnvelope holds its
  // inner as a PooledMsg), and owners release their inner's slot in their
  // destructor — which would collide with this sweep destructing the
  // inner's slot directly. The tearing_down_ flag turns those nested
  // releases into no-ops, so the sweep destructs every live slot exactly
  // once, in slot order.
  tearing_down_ = true;
  for (std::uint32_t cls = 0; cls < kNumClasses; ++cls) {
    SizeClass& sc = classes_[cls];
    std::vector<bool> free_slots(sc.created, false);
    for (std::uint32_t s : sc.free_list) free_slots[s] = true;
    for (std::uint32_t s = 0; s < sc.created; ++s) {
      if (!free_slots[s]) get(MsgHandle::make(cls, s))->~Message();
    }
  }
  std::vector<bool> free_slots(oversize_.size(), false);
  for (std::uint32_t s : oversize_free_) free_slots[s] = true;
  for (std::uint32_t s = 0; s < oversize_.size(); ++s) {
    // Address the block directly rather than through get(): the class is
    // statically the oversize one, and GCC's -Warray-bounds flags the
    // (dead) size-class branch inside address_of when it inlines here.
    if (!free_slots[s]) {
      std::launder(reinterpret_cast<Message*>(oversize_[s].block.get()))->~Message();
    }
  }
}

void MessagePool::destroy_msg(Message* msg) { msg->~Message(); }

std::uint32_t MessagePool::allocate_slot_slow(std::uint32_t cls, std::size_t bytes) {
  if (cls == kOversizeClass) {
    // LIFO scan for a recycled block big enough; deterministic.
    for (std::size_t i = oversize_free_.size(); i > 0; --i) {
      const std::uint32_t slot = oversize_free_[i - 1];
      if (oversize_[slot].capacity >= bytes) {
        oversize_free_.erase(oversize_free_.begin() +
                             static_cast<std::ptrdiff_t>(i - 1));
        return slot;
      }
    }
    OversizeSlot fresh;
    fresh.capacity = bytes;
    fresh.block = std::make_unique<std::byte[]>(bytes);
    oversize_.push_back(std::move(fresh));
    const auto slot = static_cast<std::uint32_t>(oversize_.size() - 1);
    SSPS_ASSERT_MSG(slot < (1u << 28), "MessagePool: oversize slot space exhausted");
    return slot;
  }
  SizeClass& sc = classes_[cls];
  if (sc.created % kSlabSlots == 0) {
    sc.slabs.push_back(std::make_unique<std::byte[]>(kClassBytes[cls] * kSlabSlots));
  }
  SSPS_ASSERT_MSG(sc.created < (1u << 28), "MessagePool: slot space exhausted");
  return sc.created++;
}

std::uint64_t MessagePool::slot_count() const {
  std::uint64_t total = oversize_.size();
  for (const SizeClass& sc : classes_) total += sc.created;
  return total;
}

std::size_t MessagePool::reserved_bytes() const {
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < kNumClasses; ++c) {
    total += classes_[c].slabs.size() * kClassBytes[c] * kSlabSlots;
  }
  for (const OversizeSlot& s : oversize_) total += s.capacity;
  return total;
}

}  // namespace ssps::sim
