// Pending-event set for the discrete-event simulator.
//
// Events at equal timestamps fire in scheduling order (FIFO), which the
// sequence number guarantees.  Storage is a slot arena plus a binary heap
// of trivially-copyable entries: pushes and pops allocate nothing beyond
// amortized vector growth, and handles are (slot, generation) pairs that
// go inert when the slot is recycled.
//
// Cancellation frees the event closure immediately but leaves the heap
// entry in place to be skipped on pop; once enough cancelled entries pile
// up the heap is compacted in one pass, so cancel-heavy workloads (RPC
// deadline timers that are almost always cancelled) stay bounded.
//
// Periodic ticks take constant-period timers off the heap.  A tick is a
// group of subscribers that share one period and one next call time; it
// holds a single pending {time, seq} key from the same sequence counter,
// kept outside the heap.  A pop takes the earlier of the heap top and the
// earliest tick by that key, and firing a tick calls its subscribers in
// subscription order, then re-arms the key one period later with a fresh
// sequence number: the one a lone timer scheduling its next call at the
// end of its callback would take, so such a timer keeps its order.
//
// The simulated CPU's slice end is a third source.  The simulator models
// one CPU, so at most one slice end is pending: the queue keeps it as one
// more {time, seq} key beside the ticks, armed with the sequence number a
// Push at the same moment would take, and the simulator runs it inline.
// Pop order is the same as if each slice end were a heap event.

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

// Handle that unsubscribes a periodic callback (see EventQueue::Every).
// Same lifetime rule as EventHandle.
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  // Stops further calls.  Idempotent, and inert once the tick's group is
  // freed.  Safe from inside the callback itself: the closure is destroyed
  // only after the tick has called every subscriber.
  void Cancel();

 private:
  friend class EventQueue;
  PeriodicHandle(EventQueue* queue, uint32_t tick, uint32_t gen, uint32_t id)
      : queue_(queue), tick_(tick), gen_(gen), id_(id) {}

  EventQueue* queue_ = nullptr;
  uint32_t tick_ = 0;
  uint32_t gen_ = 0;
  uint32_t id_ = 0;
};

// Handle that allows cancelling a scheduled event.  Copyable; all copies
// refer to the same event.  A handle is only valid while its queue is
// alive: cancel timers before destroying the simulator that owns them
// (destruction order already guarantees this everywhere in the tree).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet.  Idempotent.
  void Cancel();

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

  // Calls `fn` at now + period and every period after that.  Joins the
  // tick with this period whose next call is at now + period, behind its
  // subscribers, or opens a new tick.  A tick that is firing has already
  // passed that time, so nothing joins it mid-call.  `now` must never
  // decrease between calls (the simulator clock guarantees this).
  PeriodicHandle Every(SimTime now, SimDuration period, EventFn fn);

  // Arms the CPU's slice end at `at`, taking the next sequence number as a
  // Push would.  At most one slice end is armed; popping it disarms it.
  void ArmCpuSlice(SimTime at);

  // The earliest non-cancelled event.  When it is a tick, `tick` names it
  // and `fn` is unset; the tick keeps its key until FireTick has called
  // every subscriber.  When it is the CPU's slice end, `tick` is
  // kCpuSlice and `fn` is unset.
  static constexpr uint32_t kNoTick = UINT32_MAX;
  static constexpr uint32_t kCpuSlice = UINT32_MAX - 1;
  struct Popped {
    SimTime time;
    EventFn fn;
    uint32_t tick = kNoTick;
  };

  // Pops the earliest event into `out` if one exists at or before
  // `deadline`; returns false (leaving `out` alone) otherwise.  This is the
  // only read path: the simulator's run loop makes one top-of-heap
  // inspection per event.
  bool PopIfAtOrBefore(SimTime deadline, Popped* out);

  // Calls the subscribers of the popped `tick` in subscription order,
  // starting where a stopped call left off.  Once `stopped` is set, stops
  // before the next live subscriber and keeps the tick's key, so the next
  // pop resumes it; otherwise re-arms the tick one period later, or frees
  // it when no subscriber is left.
  void FireTick(uint32_t tick, const bool& stopped);

  size_t size_for_testing() const { return heap_.size(); }
  // Cancelled entries still occupying the heap (awaiting skip/compaction).
  size_t cancelled_count_for_testing() const { return cancelled_pending_; }

 private:
  friend class EventHandle;
  friend class PeriodicHandle;

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
  struct Slot {
    EventFn fn;
    uint32_t gen = 0;
    bool cancelled = false;
    uint32_t next_free = kNoSlot;
  };

  struct Subscriber {
    EventFn fn;
    uint32_t id;  // Increasing within a tick, so subs stay sorted by id.
    bool cancelled = false;
  };
  struct Tick {
    HeapEntry key;  // {next call time, seq << kSlotBits}.
    SimDuration period;
    std::vector<Subscriber> subs;
    // Next subscriber to call; nonzero exactly while the tick is firing
    // (or stopped mid-call).
    size_t cursor = 0;
    size_t cancelled = 0;
    uint32_t gen = 0;  // Bumped when the tick is freed.
    uint32_t next_id = 0;
  };

  // Front() result: the heap, a tick index, the CPU key, or nothing
  // pending.
  static constexpr int kHeapSource = -1;
  static constexpr int kNoSource = -2;
  static constexpr int kCpuSource = -3;

  uint32_t AllocSlot();
  // Recycles a slot whose entry is gone; bumps gen so stale handles are
  // inert.
  void FreeSlot(uint32_t slot);
  void CancelSlot(uint32_t slot, uint32_t gen);
  // One-pass removal of all cancelled entries followed by a heap rebuild.
  void Compact();
  void CancelSubscriber(uint32_t tick, uint32_t gen, uint32_t id);
  // Destroys the tick's closures and bumps its generation.
  void FreeTick(uint32_t tick);
  // Recomputes tick_front_ after a tick opened, moved or was freed.
  void RescanTicks();

  // 4-ary heap primitives over heap_.
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  // Removes heap_[0], preserving the heap property.
  void RemoveTop();

  // Source of the earliest live entry (kHeapSource, a tick index,
  // kCpuSource, or kNoSource), dropping cancelled heap entries that reach
  // the top on the way.
  int Front();
  const HeapEntry& FrontKey(int source) const {
    if (source == kHeapSource) {
      return heap_.front();
    }
    return source == kCpuSource ? cpu_key_ : ticks_[source].key;
  }
  // Moves the front of `source` (which must be live) into `out`.
  void TakeFront(int source, Popped* out);

  std::vector<HeapEntry> heap_;
  // One tick per distinct (period, phase) pair, so a handful.  A tick is
  // in use while it has subscribers; freed ticks stay in place for reuse,
  // since handles index into this vector.
  std::vector<Tick> ticks_;
  // Tick with the earliest key, or kNoSource when no tick is in use.
  int tick_front_ = kNoSource;
  // The CPU's pending slice end, {time, seq << kSlotBits}, while armed.
  HeapEntry cpu_key_{};
  bool cpu_armed_ = false;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  size_t cancelled_pending_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace odsim

#endif  // SRC_SIM_EVENT_QUEUE_H_
