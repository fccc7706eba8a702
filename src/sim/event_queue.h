// Pending-event set for the discrete-event simulator.
//
// Events at equal timestamps fire in scheduling order (FIFO), which the
// sequence number guarantees.  Storage is a slot arena plus a binary heap
// of trivially-copyable entries: Push and Pop allocate nothing beyond
// amortized vector growth, and handles are (slot, generation) pairs that
// go inert when the slot is recycled.
//
// Cancellation frees the event closure immediately but leaves the heap
// entry in place to be skipped on pop; once enough cancelled entries pile
// up the heap is compacted in one pass, so cancel-heavy workloads (RPC
// deadline timers that are almost always cancelled) stay bounded.
//
// Fixed-delay lanes take self-rescheduling periodic timers off the heap.
// A lane is a FIFO of the same {time, seq|slot} entries, all pushed at
// now + d for one delay d.  With a non-decreasing now and a fresh sequence
// number per push, each push is later than the lane's back, so the lane is
// sorted by construction and pushing to it is O(1).  Pop takes the
// earliest of the heap top and the lane fronts by the same (time, seq)
// key, so the pop sequence is exactly the one an all-heap queue gives.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace odsim {

using EventFn = std::function<void()>;

class EventQueue;

// Handle that allows cancelling a scheduled event.  Copyable; all copies
// refer to the same event.  A handle is only valid while its queue is
// alive: cancel timers before destroying the simulator that owns them
// (destruction order already guarantees this everywhere in the tree).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet.  Idempotent.
  void Cancel();

  // True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t gen_ = 0;
};

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Inserts an event; returns a handle usable for cancellation.
  EventHandle Push(SimTime at, EventFn fn);

  // Inserts an event at now + delay on the FIFO lane for `delay`.  `now`
  // must never decrease between calls (the simulator clock guarantees
  // this).  Same handle semantics and pop order as Push(now + delay, fn);
  // only the cost differs.  Once kMaxLanes distinct delays hold lanes,
  // further delays go to the heap.
  EventHandle PushLane(SimTime now, SimDuration delay, EventFn fn);

  bool empty() const;

  // Time of the earliest non-cancelled event.  Requires !empty().
  SimTime NextTime() const;

  // Removes and returns the earliest non-cancelled event.  Requires !empty().
  struct Popped {
    SimTime time;
    EventFn fn;
  };
  Popped Pop();

  // Pops the earliest event into `out` if one exists at or before
  // `deadline`; returns false (leaving `out` alone) otherwise.  The
  // simulator main loops use this to make one top-of-heap inspection per
  // event instead of three (empty / NextTime / Pop).
  bool PopIfAtOrBefore(SimTime deadline, Popped* out);

  size_t size_for_testing() const { return heap_.size(); }
  // Cancelled entries still occupying the heap (awaiting skip/compaction).
  // Lane entries never count here.
  size_t cancelled_count_for_testing() const { return cancelled_pending_; }
  // Entries the lanes can hold without growing, summed over lanes.
  size_t lane_capacity_for_testing() const;

  static constexpr size_t kMaxLanes = 8;

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // 16 trivially-copyable bytes: the sequence number lives in the high 40
  // bits of seq_slot and the arena slot in the low 24, so comparing
  // seq_slot orders by sequence (sequences are unique, so the slot bits
  // never decide).  The heap is 4-ary: one 16-byte entry makes each
  // 4-child sibling group exactly one cache line, and the shallower tree
  // roughly halves the cache misses per sift compared to a binary heap.
  // (time, seq) is a strict total order, so the pop sequence is
  // independent of heap arity and internal layout.
  struct HeapEntry {
    SimTime time;
    uint64_t seq_slot;

    uint32_t slot() const { return static_cast<uint32_t>(seq_slot & kSlotMask); }
  };
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static bool EarlierEntry(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq_slot < b.seq_slot;
  }
  static constexpr uint8_t kHeapLane = UINT8_MAX;
  struct Slot {
    EventFn fn;
    uint32_t gen = 0;
    bool cancelled = false;
    uint8_t lane = kHeapLane;  // Where the slot's entry waits.
    uint32_t next_free = kNoSlot;
  };

  // Ring buffer of entries in (time, seq) order.  Capacity is a power of
  // two, at most max(16, 2 × the lane's peak entry count).
  struct Lane {
    SimDuration delay;
    std::vector<HeapEntry> ring;
    size_t head = 0;
    size_t count = 0;
    size_t cancelled = 0;

    HeapEntry& at(size_t i) { return ring[(head + i) & (ring.size() - 1)]; }
    const HeapEntry& front() const { return ring[head]; }
    const HeapEntry& back() const {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void PushBack(const HeapEntry& e) {
      if (count == ring.size()) {
        Grow();
      }
      ring[(head + count) & (ring.size() - 1)] = e;
      ++count;
    }
    void Grow();
    void PopFront() {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
  };

  // Front() result: the heap, a lane index, or nothing pending.
  static constexpr int kHeapSource = -1;
  static constexpr int kNoSource = -2;

  uint32_t AllocSlot();
  // Recycles a slot whose entry is gone; bumps gen so stale handles are
  // inert.  Const so Front can call it; touches only the mutable arena
  // state.
  void FreeSlot(uint32_t slot) const;
  void CancelSlot(uint32_t slot, uint32_t gen);
  bool SlotPending(uint32_t slot, uint32_t gen) const;
  // One-pass removal of all cancelled entries followed by a heap rebuild.
  void Compact();
  // Same for one lane; survivors keep their order.
  void CompactLane(Lane& lane);
  // Recomputes lane_front_ after a lane's front moved back.
  void RescanLanes() const;

  // 4-ary heap primitives over heap_.  Const because Front needs them;
  // they touch only the mutable heap state.
  void SiftUp(size_t i) const;
  void SiftDown(size_t i) const;
  // Removes heap_[0], preserving the heap property.
  void RemoveTop() const;

  // Source of the earliest live entry (kHeapSource, a lane index, or
  // kNoSource), dropping cancelled entries that reach the front on the
  // way.  Const because the queue's logical contents don't change,
  // matching empty()/NextTime().
  int Front() const;
  const HeapEntry& FrontEntry(int source) const {
    return source == kHeapSource ? heap_.front() : lanes_[source].front();
  }
  // Removes the front entry of `source` and frees its slot.
  void RemoveFront(int source) const;
  // Moves the front of `source` (which must be live) into `out`.
  void TakeFront(int source, Popped* out);

  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<Lane> lanes_;
  // Lane with the earliest front, or kNoSource when all lanes are empty;
  // heap pops, the common case, then compare against one lane front.
  mutable int lane_front_ = kNoSource;
  mutable std::vector<Slot> slots_;
  mutable uint32_t free_head_ = kNoSlot;
  mutable size_t cancelled_pending_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace odsim

#endif  // SRC_SIM_EVENT_QUEUE_H_
