// Reusable records addressed by generation-checked handles.
//
// An asynchronous operation (an RPC, a warden fetch) keeps its state in one
// pooled record, and each continuation it schedules captures only
// `{this, Handle}`.  libstdc++'s std::function stores a closure inline only
// when it is at most 16 bytes and trivially copyable; anything larger, or
// holding a shared_ptr or another std::function, is heap-allocated on every
// construction and copy.  `{this, Handle}` is 16 trivially-copyable bytes,
// so scheduling a continuation allocates nothing.  Release() bumps the
// record's generation, so a continuation that runs after its operation
// ended (a transfer draining after an outage, a reply racing a deadline)
// finds a mismatch and does nothing, even if the record already serves the
// next operation.
//
// Records are individually allocated and never move: a callback may hold a
// reference into one while it starts another operation that grows the
// pool.  The pool grows to its owner's peak number of concurrent
// operations and then allocates nothing.

#ifndef SRC_UTIL_SLOT_POOL_H_
#define SRC_UTIL_SLOT_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/check.h"

namespace odutil {

template <typename T>
class SlotPool {
 public:
  struct Handle {
    uint32_t slot = 0;
    uint32_t gen = 0;
  };

  SlotPool() = default;
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  // Takes a free record, growing the pool by one if none is free.  The
  // record keeps what its previous user left in it; the caller assigns
  // every field it later reads.
  Handle Acquire() {
    if (free_head_ == kNoSlot) {
      entries_.push_back(std::make_unique<Entry>());
      free_head_ = static_cast<uint32_t>(entries_.size() - 1);
    }
    uint32_t slot = free_head_;
    Entry& entry = *entries_[slot];
    free_head_ = entry.next_free;
    entry.next_free = kNoSlot;
    return Handle{slot, entry.gen};
  }

  // The record `handle` names, or nullptr once it has been released.
  T* Find(Handle handle) {
    Entry& entry = *entries_[handle.slot];
    return entry.gen == handle.gen ? &entry.value : nullptr;
  }

  // The record `handle` names, which must not have been released.
  T& operator[](Handle handle) {
    T* value = Find(handle);
    OD_CHECK_MSG(value != nullptr, "stale SlotPool handle");
    return *value;
  }

  // Ends the operation: every handle to it goes stale, and the record is
  // free for the next Acquire.
  void Release(Handle handle) {
    OD_CHECK_MSG(Find(handle) != nullptr, "stale SlotPool handle");
    Entry& entry = *entries_[handle.slot];
    ++entry.gen;
    entry.next_free = free_head_;
    free_head_ = handle.slot;
  }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Entry {
    T value{};
    uint32_t gen = 0;
    uint32_t next_free = kNoSlot;
  };

  std::vector<std::unique_ptr<Entry>> entries_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace odutil

#endif  // SRC_UTIL_SLOT_POOL_H_
