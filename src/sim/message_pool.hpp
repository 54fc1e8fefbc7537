// Slab/arena allocation for protocol messages.
//
// The simulator used to heap-allocate every Message behind a
// std::unique_ptr; at n >= 1024 the malloc/free churn dominated the round
// loop. The MessagePool replaces it with size-classed slabs and LIFO
// freelists: a message lives in a pooled slot, is addressed by a 32-bit
// MsgHandle (size class in the top bits, slot index below), and its slot
// is recycled as soon as the message is delivered or its target crashes.
//
// Determinism: allocation order is a pure function of the make/destroy
// call sequence (fresh slots are handed out sequentially, freed slots are
// reused LIFO), so a replayed run sees bit-identical handle sequences —
// tests/sim/message_pool_test.cpp pins this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
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
MsgTypeId allocate_msg_type_id();

/// Namespace-scope inline variable (one per type, assigned before main):
/// reading it is a plain load, with none of the guard-check overhead a
/// function-local static would put into every msg_cast.
template <typename T>
inline const MsgTypeId msg_type_id_of = allocate_msg_type_id();
}  // namespace detail

/// The unique tag of message type T (exact type, not a base).
template <typename T>
MsgTypeId msg_type_id() {
  return detail::msg_type_id_of<T>;
}

/// Pooled address of a message: size class in the top 4 bits, slot index
/// in the remaining 28. Value semantics; kNull means "no message".
struct MsgHandle {
  static constexpr std::uint32_t kNull = 0xffffffffu;

  std::uint32_t bits = kNull;

  constexpr bool is_null() const { return bits == kNull; }
  constexpr explicit operator bool() const { return bits != kNull; }
  constexpr bool operator==(const MsgHandle&) const = default;

  constexpr std::uint32_t size_class() const { return bits >> 28; }
  constexpr std::uint32_t slot() const { return bits & 0x0fffffffu; }

  static constexpr MsgHandle make(std::uint32_t size_class, std::uint32_t slot) {
    return MsgHandle{(size_class << 28) | slot};
  }
};

/// One slot release that must wait for the next round barrier: the handle
/// plus the pool that owns it (parallel rounds run one pool per worker).
struct DeferredFree {
  MessagePool* pool = nullptr;
  MsgHandle handle;
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
/// access to the underlying MsgHandle for code that stores messages
/// compactly (the Network's channels).
class PooledMsg {
 public:
  PooledMsg() = default;
  PooledMsg(MessagePool* pool, Message* ptr, MsgHandle handle)
      : pool_(pool), ptr_(ptr), handle_(handle) {}

  PooledMsg(PooledMsg&& o) noexcept
      : pool_(o.pool_), ptr_(o.ptr_), handle_(o.handle_) {
    o.forget();
  }
  PooledMsg& operator=(PooledMsg&& o) noexcept {
    if (this != &o) {
      reset();
      pool_ = o.pool_;
      ptr_ = o.ptr_;
      handle_ = o.handle_;
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

  MsgHandle handle() const { return handle_; }
  MessagePool* pool() const { return pool_; }

  /// Destroys the held message (if any) and recycles its slot.
  void reset();

  /// Releases ownership without destroying; returns the raw handle. The
  /// caller becomes responsible for MessagePool::destroy.
  MsgHandle release() {
    const MsgHandle h = handle_;
    forget();
    return h;
  }

 private:
  void forget() {
    pool_ = nullptr;
    ptr_ = nullptr;
    handle_ = MsgHandle{};
  }

  MessagePool* pool_ = nullptr;
  Message* ptr_ = nullptr;
  MsgHandle handle_ = MsgHandle{};
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
    const std::uint32_t cls = class_for(sizeof(T));
    const std::uint32_t slot = allocate_slot(cls, sizeof(T));
    T* msg = ::new (address_of(cls, slot)) T(std::forward<Args>(args)...);
    ++live_;
    ++total_allocated_;
    return PooledMsg(this, msg, MsgHandle::make(cls, slot));
  }

  /// The message stored at `h` (must be live).
  Message* get(MsgHandle h) {
    return std::launder(reinterpret_cast<Message*>(address_of(h.size_class(), h.slot())));
  }

  /// Runs the message's destructor and recycles the slot (LIFO). During a
  /// parallel round phase a free into a pool this thread does not own is
  /// deferred to the thread's FreeLane and repatriated at the round
  /// barrier (the slot's live accounting moves with it, in reclaim()).
  void destroy(MsgHandle h) { destroy(get(h), h); }

  /// destroy() for callers that already hold the message pointer (the
  /// Network's envelopes, PooledMsg). On a worker thread this avoids the
  /// slab-table lookup of get(), which may race the owning thread growing
  /// its own pool mid-phase; the destructor itself only touches the slot's
  /// memory, which is exclusively this message's until reclaim().
  void destroy(Message* msg, MsgHandle h) {
    SSPS_ASSERT(!h.is_null());
    destroy_msg(msg);
    FreeLane* lane = detail::tls_free_lane;
    if (lane != nullptr && lane->own != this) [[unlikely]] {
      lane->deferred.push_back(DeferredFree{this, h});
      return;
    }
    reclaim(h);
  }

  /// Recycles a slot whose destructor already ran (the repatriation half
  /// of a deferred destroy). Must run on the thread that owns this pool —
  /// in practice, the main thread at a round barrier.
  void reclaim(MsgHandle h) {
    if (h.size_class() == kOversizeClass) {
      oversize_free_.push_back(h.slot());
    } else {
      classes_[h.size_class()].free_list.push_back(h.slot());
    }
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
  // Fixed-size classes; messages larger than the last class get an
  // individually sized slot in the oversize class (index kNumClasses).
  static constexpr std::size_t kClassBytes[] = {64, 128, 256, 512};
  static constexpr std::uint32_t kNumClasses =
      static_cast<std::uint32_t>(std::size(kClassBytes));
  static constexpr std::uint32_t kOversizeClass = kNumClasses;
  static constexpr std::size_t kSlabSlots = 1024;

  struct SizeClass {
    std::vector<std::unique_ptr<std::byte[]>> slabs;
    std::vector<std::uint32_t> free_list;
    std::uint32_t created = 0;  // slots ever carved from slabs
  };
  struct OversizeSlot {
    std::unique_ptr<std::byte[]> block;
    std::size_t capacity = 0;
  };

  static std::uint32_t class_for(std::size_t bytes) {
    for (std::uint32_t c = 0; c < kNumClasses; ++c) {
      if (bytes <= kClassBytes[c]) return c;
    }
    return kOversizeClass;
  }

  static void destroy_msg(Message* msg);  // virtual dtor call (needs Message)

  std::uint32_t allocate_slot(std::uint32_t cls, std::size_t bytes) {
    if (cls != kOversizeClass) [[likely]] {
      SizeClass& sc = classes_[cls];
      if (!sc.free_list.empty()) [[likely]] {
        const std::uint32_t slot = sc.free_list.back();
        sc.free_list.pop_back();
        return slot;
      }
    }
    return allocate_slot_slow(cls, bytes);
  }
  std::uint32_t allocate_slot_slow(std::uint32_t cls, std::size_t bytes);

  std::byte* address_of(std::uint32_t cls, std::uint32_t slot) {
    if (cls != kOversizeClass) [[likely]] {
      return classes_[cls].slabs[slot / kSlabSlots].get() +
             kClassBytes[cls] * (slot % kSlabSlots);
    }
    return oversize_[slot].block.get();
  }

  SizeClass classes_[kNumClasses];
  std::vector<OversizeSlot> oversize_;
  std::vector<std::uint32_t> oversize_free_;
  std::size_t live_ = 0;
  std::uint64_t total_allocated_ = 0;
  bool tearing_down_ = false;
};

}  // namespace ssps::sim
