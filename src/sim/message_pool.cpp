#include "sim/message_pool.hpp"

#include "sim/message.hpp"

namespace ssps::sim {

namespace detail {

constinit std::uint8_t msg_slot_class[kMaxMsgTypes] = {};

MsgTypeId allocate_msg_type_id(std::size_t bytes) {
  static MsgTypeId next = 0;
  const MsgTypeId id = ++next;  // 0 stays "untagged"
  SSPS_ASSERT_MSG(id < kMaxMsgTypes, "allocate_msg_type_id: too many message types");
  msg_slot_class[id] = static_cast<std::uint8_t>(slot_class_for(bytes));
  return id;
}

constinit thread_local FreeLane* tls_free_lane = nullptr;

}  // namespace detail

void PooledMsg::destroy_held() {
  // During pool teardown the sweep below destructs every live slot
  // itself; a nested owner's release must then be a no-op or the slot
  // would see its destructor twice.
  if (pool_ != nullptr && !pool_->tearing_down()) pool_->destroy(ptr_);
}

namespace {

/// What the teardown sweep builds in each free slot, so that every slot
/// holds a Message: its type id is 0, which no pooled message has (make
/// asserts each message's id is its type's).
struct FreeSlot final : Message {
  std::string_view name() const override { return "FreeSlot"; }
};

}  // namespace

MessagePool::~MessagePool() {
  // Channels normally drain before the Network dies, which leaves nothing
  // to sweep. A mid-run teardown (e.g. a test aborting a scenario) may
  // leave live messages; destroy them so their payloads (strings,
  // vectors) are released.
  if (live_ == 0) return;
  // Live messages can OWN other pooled messages (TopicEnvelope holds its
  // inner as a PooledMsg), and owners release their inner's slot in their
  // destructor — which would collide with this sweep destructing the
  // inner's slot directly. The tearing_down_ flag turns those nested
  // releases into no-ops, so the sweep destructs every live slot exactly
  // once, in slot order.
  tearing_down_ = true;
  for (SizeClass& sc : classes_) {
    for (std::byte* slot : sc.free_list) ::new (slot) FreeSlot();
  }
  for (std::uint32_t cls = 0; cls < detail::kSlotClasses; ++cls) {
    const SizeClass& sc = classes_[cls];
    for (std::size_t s = 0; s < sc.created; ++s) {
      Message* msg = std::launder(reinterpret_cast<Message*>(
          sc.slabs[s / kSlabSlots].get() + detail::kSlotBytes[cls] * (s % kSlabSlots)));
      if (msg->type_id() != 0) msg->~Message();
    }
  }
}

std::uint32_t MessagePool::destroy_msg(Message* msg) {
  const std::uint32_t cls = detail::msg_slot_class[msg->type_id()];
  msg->~Message();
  return cls;
}

std::byte* MessagePool::carve(std::uint32_t cls) {
  SizeClass& sc = classes_[cls];
  if (sc.created % kSlabSlots == 0) {
    sc.slabs.push_back(
        std::make_unique<std::byte[]>(detail::kSlotBytes[cls] * kSlabSlots));
  }
  return sc.slabs.back().get() + detail::kSlotBytes[cls] * (sc.created++ % kSlabSlots);
}

std::uint64_t MessagePool::slot_count() const {
  std::uint64_t total = 0;
  for (const SizeClass& sc : classes_) total += sc.created;
  return total;
}

std::size_t MessagePool::reserved_bytes() const {
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < detail::kSlotClasses; ++c) {
    total += classes_[c].slabs.size() * detail::kSlotBytes[c] * kSlabSlots;
  }
  return total;
}

}  // namespace ssps::sim
