// Slab/arena allocation for protocol messages.
//
// The simulator used to heap-allocate every Message behind a
// std::unique_ptr; at n >= 1024 the malloc/free churn dominated the round
// loop. The MessagePool replaces it with size-classed slabs and LIFO
// freelists of slot pointers: a message lives in a slot of the smallest
// class that holds its type (recorded with the type's MsgTypeId), and its
// slot is recycled as soon as the message is delivered or its target
// crashes.
//
// Determinism: allocation order is a pure function of the make/destroy
// call sequence (fresh slots are handed out sequentially, freed slots are
// reused LIFO), so a replayed run reuses slots in the same pattern —
// tests/sim/message_pool_test.cpp pins this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace ssps::sim {

class Message;
class MessagePool;

/// Runtime type tag of a concrete Message class. Assigned lazily, one per
/// instantiated type; valid ids are nonzero. Tags make message dispatch a
/// single integer compare (see msg_cast) instead of a dynamic_cast.
using MsgTypeId = std::uint32_t;

namespace detail {

/// Slot bytes of the pool's size classes. Every pooled type fits the
/// largest: MessagePool::make rejects bigger ones at compile time (the
/// largest protocol message, SetData, takes 104 bytes).
inline constexpr std::size_t kSlotBytes[] = {64, 128, 256, 512};
inline constexpr std::uint32_t kSlotClasses =
    static_cast<std::uint32_t>(std::size(kSlotBytes));

/// The smallest class whose slots hold `bytes`; kSlotClasses if none does.
constexpr std::uint32_t slot_class_for(std::size_t bytes) {
  std::uint32_t c = 0;
  while (c < kSlotClasses && bytes > kSlotBytes[c]) ++c;
  return c;
}

/// Slot class of each MsgTypeId, written once as the id is assigned (ids
/// are dense: one per message type the process instantiates). This is
/// how a pool finds a message's freelist from the message alone.
inline constexpr std::size_t kMaxMsgTypes = 256;
extern constinit std::uint8_t msg_slot_class[kMaxMsgTypes];

/// Assigns the next type id to a type of `bytes` bytes.
MsgTypeId allocate_msg_type_id(std::size_t bytes);

/// Namespace-scope inline variable (one per type, assigned before main):
/// reading it is a plain load, with none of the guard-check overhead a
/// function-local static would put into every msg_cast.
template <typename T>
inline const MsgTypeId msg_type_id_of = allocate_msg_type_id(sizeof(T));
}  // namespace detail

/// The unique tag of message type T (exact type, not a base).
template <typename T>
MsgTypeId msg_type_id() {
  return detail::msg_type_id_of<T>;
}

/// One slot release that must wait for the next round barrier: the slot,
/// its size class and the pool that owns it (parallel rounds run one pool
/// per worker). The message's destructor has already run.
struct DeferredFree {
  MessagePool* pool = nullptr;
  std::byte* slot = nullptr;
  std::uint32_t size_class = 0;
};

/// Per-worker deferred-free list, active while a ParallelScheduler phase
/// runs on this thread. A worker delivering messages frees slots that
/// belong to *other* workers' pools (whoever sent the message last round
/// allocated it); pushing those frees here — and repatriating them on the
/// main thread at the round barrier — keeps every pool's freelist
/// single-threaded, so the hot allocation path needs no atomics. Frees
/// into the worker's own pool (`own`) recycle immediately.
struct FreeLane {
  MessagePool* own = nullptr;
  std::vector<DeferredFree> deferred;
};

namespace detail {
/// Null outside parallel round phases; set by the scheduler's workers
/// around their delivery slice. See FreeLane. constinit for the same
/// reason as tls_send_ctx (network.hpp): no dynamic-init guard on reads.
extern thread_local constinit FreeLane* tls_free_lane;
}  // namespace detail

/// Owning smart handle for a pooled message: unique_ptr semantics (move
/// only, destroys the message and recycles its slot on scope exit), plus
/// the pool that owns it, for code that stores messages compactly (the
/// Network's channels).
class PooledMsg {
 public:
  PooledMsg() = default;
  PooledMsg(MessagePool* pool, Message* ptr) : pool_(pool), ptr_(ptr) {}

  PooledMsg(PooledMsg&& o) noexcept : pool_(o.pool_), ptr_(o.ptr_) { o.forget(); }
  PooledMsg& operator=(PooledMsg&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      ptr_ = o.ptr_;
      o.forget();
    }
    return *this;
  }
  PooledMsg(const PooledMsg&) = delete;
  PooledMsg& operator=(const PooledMsg&) = delete;
  ~PooledMsg() { reset(); }

  Message* get() const { return ptr_; }
  Message* operator->() const { return ptr_; }
  Message& operator*() const { return *ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  MessagePool* pool() const { return pool_; }

  /// Destroys the held message (if any) and recycles its slot. Every
  /// moved-from handle runs this from its destructor, so the empty case
  /// is tested inline and only the destroy is a call.
  void reset() {
    if (ptr_ != nullptr) destroy_held();
    forget();
  }

  /// Releases ownership without destroying; returns the message. The
  /// caller becomes responsible for MessagePool::destroy.
  Message* release() {
    Message* const msg = ptr_;
    forget();
    return msg;
  }

 private:
  void forget() {
    pool_ = nullptr;
    ptr_ = nullptr;
  }
  /// reset()'s out-of-line half: destroys the held message.
  void destroy_held();

  MessagePool* pool_ = nullptr;
  Message* ptr_ = nullptr;
};

/// Size-classed slab allocator for messages. Owned by the Network; every
/// protocol message of a simulation lives here.
class MessagePool {
 public:
  MessagePool() = default;
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;
  ~MessagePool();

  /// Constructs a T in a pooled slot and returns the owning handle.
  template <typename T, typename... Args>
  PooledMsg make(Args&&... args) {
    static_assert(std::is_base_of_v<Message, T>);
    static_assert(detail::slot_class_for(sizeof(T)) < detail::kSlotClasses,
                  "message type larger than the largest pool slot");
    std::byte* slot = allocate(detail::slot_class_for(sizeof(T)));
    T* msg = ::new (slot) T(std::forward<Args>(args)...);
    // destroy() finds the slot and its class from the message alone (its
    // address, and the class recorded for its type_id()), and the
    // teardown sweep tells a live slot by its nonzero id.
    SSPS_ASSERT(static_cast<void*>(static_cast<Message*>(msg)) == slot &&
                msg->type_id() == msg_type_id<T>());
    ++live_;
    ++total_allocated_;
    return PooledMsg(this, msg);
  }

  /// Runs the message's destructor and recycles its slot (LIFO) in the
  /// class its type_id() names. During a parallel round phase a free into
  /// a pool this thread does not own is deferred to the thread's FreeLane
  /// and repatriated at the round barrier (the slot's live accounting
  /// moves with it, in reclaim()). Touches none of the pool's own state
  /// unless it recycles there, so a worker may destroy a message of a pool
  /// another thread is growing.
  void destroy(Message* msg) {
    std::byte* slot = reinterpret_cast<std::byte*>(msg);
    const std::uint32_t cls = destroy_msg(msg);
    FreeLane* lane = detail::tls_free_lane;
    if (lane != nullptr && lane->own != this) [[unlikely]] {
      lane->deferred.push_back(DeferredFree{this, slot, cls});
      return;
    }
    reclaim(slot, cls);
  }

  /// Recycles a slot whose destructor already ran (the repatriation half
  /// of a deferred destroy). Must run on the thread that owns this pool —
  /// in practice, the main thread at a round barrier.
  void reclaim(std::byte* slot, std::uint32_t size_class) {
    classes_[size_class].free_list.push_back(slot);
    --live_;
  }

  /// Messages currently alive in the pool.
  std::size_t live() const { return live_; }

  /// Messages ever constructed (monotone; for recycling tests/benches).
  std::uint64_t total_allocated() const { return total_allocated_; }

  /// Pooled slots ever carved out of slabs (monotone). total_allocated()
  /// growing while slot_count() stays flat is recycling at work.
  std::uint64_t slot_count() const;

  /// Bytes currently reserved by all slabs.
  std::size_t reserved_bytes() const;

  /// True while the destructor's slot sweep runs (see ~MessagePool).
  bool tearing_down() const { return tearing_down_; }

 private:
  static constexpr std::size_t kSlabSlots = 1024;

  struct SizeClass {
    std::vector<std::unique_ptr<std::byte[]>> slabs;
    std::vector<std::byte*> free_list;
    std::size_t created = 0;  // slots ever carved from slabs
  };

  /// Runs the message's (virtual) destructor and returns the slot class
  /// of its type, read first. Out of line: it needs Message complete.
  static std::uint32_t destroy_msg(Message* msg);

  std::byte* allocate(std::uint32_t cls) {
    SizeClass& sc = classes_[cls];
    if (!sc.free_list.empty()) [[likely]] {
      std::byte* slot = sc.free_list.back();
      sc.free_list.pop_back();
      return slot;
    }
    return carve(cls);
  }
  /// The class's next fresh slot (a new slab every kSlabSlots slots).
  std::byte* carve(std::uint32_t cls);

  SizeClass classes_[detail::kSlotClasses];
  std::size_t live_ = 0;
  std::uint64_t total_allocated_ = 0;
  bool tearing_down_ = false;
};

}  // namespace ssps::sim
