#include "src/sim/event_queue.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "src/util/check.h"

namespace odsim {

namespace {
constexpr size_t kArity = 4;
// Compact once at least this many cancelled entries have accumulated AND
// they outnumber live entries; small queues just skip-on-pop.
constexpr size_t kCompactMinCancelled = 64;
}  // namespace

void EventHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->CancelSlot(slot_, gen_);
  }
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->SlotPending(slot_, gen_);
}

void PeriodicHandle::Cancel() {
  if (queue_ != nullptr) {
    queue_->CancelSubscriber(tick_, gen_, id_);
  }
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  OD_CHECK(slots_.size() < (size_t{1} << kSlotBits));
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

inline void EventQueue::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.cancelled = false;
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::SiftUp(size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!EarlierEntry(e, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  HeapEntry e = heap_[i];
  for (;;) {
    size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t last = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (EarlierEntry(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!EarlierEntry(heap_[best], e)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::RemoveTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0);
  }
}

EventHandle EventQueue::Push(SimTime at, EventFn fn) {
  uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push_back(
      HeapEntry{at, (next_seq_++ << kSlotBits) | uint64_t{slot}});
  SiftUp(heap_.size() - 1);
  return EventHandle(this, slot, s.gen);
}

void EventQueue::ArmCpuSlice(SimTime at) {
  OD_DCHECK(!cpu_armed_);
  cpu_key_ = HeapEntry{at, next_seq_++ << kSlotBits};
  cpu_armed_ = true;
}

PeriodicHandle EventQueue::Every(SimTime now, SimDuration period, EventFn fn) {
  // A subscriber's closure runs in place inside its tick's vector, and a
  // callback that opens a tick may grow ticks_: moving a Tick must keep its
  // subs buffer, which only a non-throwing move guarantees.
  static_assert(std::is_nothrow_move_constructible_v<Tick>);
  OD_CHECK(period > SimDuration::Zero());
  const SimTime at = now + period;
  // Join the latest-keyed match: a subscriber re-arming itself would take
  // a sequence number after every event already due at `at`.  (Two ticks
  // share a period and time when one opened while the other was firing.)
  size_t index = ticks_.size();
  for (size_t i = 0; i < ticks_.size(); ++i) {
    const Tick& t = ticks_[i];
    if (!t.subs.empty() && t.period == period && t.key.time == at &&
        (index == ticks_.size() ||
         t.key.seq_slot > ticks_[index].key.seq_slot)) {
      index = i;
    }
  }
  if (index == ticks_.size()) {
    index = 0;
    while (index < ticks_.size() && !ticks_[index].subs.empty()) {
      ++index;
    }
    if (index == ticks_.size()) {
      ticks_.emplace_back();
    }
    ticks_[index].period = period;
    ticks_[index].key = HeapEntry{at, next_seq_++ << kSlotBits};
  }
  Tick& t = ticks_[index];
  t.subs.push_back(Subscriber{std::move(fn), t.next_id});
  RescanTicks();
  return PeriodicHandle(this, static_cast<uint32_t>(index), t.gen,
                        t.next_id++);
}

void EventQueue::CancelSubscriber(uint32_t tick, uint32_t gen, uint32_t id) {
  if (tick >= ticks_.size() || ticks_[tick].gen != gen) {
    return;  // The tick was freed (and maybe reused) since.
  }
  Tick& t = ticks_[tick];
  auto it = std::lower_bound(
      t.subs.begin(), t.subs.end(), id,
      [](const Subscriber& s, uint32_t v) { return s.id < v; });
  if (it == t.subs.end() || it->id != id || it->cancelled) {
    return;
  }
  it->cancelled = true;
  ++t.cancelled;
  if (t.cursor != 0) {
    return;  // Firing: the closure may be running; FireTick erases it.
  }
  it->fn = nullptr;
  if (t.cancelled == t.subs.size()) {
    FreeTick(tick);
  }
}

void EventQueue::FreeTick(uint32_t tick) {
  Tick& t = ticks_[tick];
  t.subs.clear();
  t.cancelled = 0;
  t.next_id = 0;
  ++t.gen;
  RescanTicks();
}

void EventQueue::RescanTicks() {
  tick_front_ = kNoSource;
  for (size_t i = 0; i < ticks_.size(); ++i) {
    const Tick& t = ticks_[i];
    if (!t.subs.empty() && (tick_front_ == kNoSource ||
                            EarlierEntry(t.key, ticks_[tick_front_].key))) {
      tick_front_ = static_cast<int>(i);
    }
  }
}

void EventQueue::FireTick(uint32_t tick, const bool& stopped) {
  for (;;) {
    // Re-read every pass: a callback that opens a tick may grow ticks_.
    Tick& t = ticks_[tick];
    while (t.cursor < t.subs.size() && t.subs[t.cursor].cancelled) {
      ++t.cursor;
    }
    if (t.cursor == t.subs.size()) {
      break;
    }
    if (stopped) {
      return;
    }
    t.subs[t.cursor++].fn();
  }
  Tick& t = ticks_[tick];
  t.cursor = 0;
  if (t.cancelled != 0) {
    std::erase_if(t.subs, [](const Subscriber& s) { return s.cancelled; });
    t.cancelled = 0;
  }
  if (t.subs.empty()) {
    FreeTick(tick);
    return;
  }
  t.key = HeapEntry{t.key.time + t.period, next_seq_++ << kSlotBits};
  RescanTicks();
}

void EventQueue::CancelSlot(uint32_t slot, uint32_t gen) {
  if (slot >= slots_.size()) {
    return;
  }
  Slot& s = slots_[slot];
  if (s.gen != gen || s.cancelled) {
    return;  // Already fired, cancelled, or the slot was recycled.
  }
  s.cancelled = true;
  s.fn = nullptr;  // Release the closure (and anything it keeps alive) now.
  ++cancelled_pending_;
  if (cancelled_pending_ >= kCompactMinCancelled &&
      cancelled_pending_ * 2 > heap_.size()) {
    Compact();
  }
}

bool EventQueue::SlotPending(uint32_t slot, uint32_t gen) const {
  if (slot >= slots_.size()) {
    return false;
  }
  const Slot& s = slots_[slot];
  return s.gen == gen && !s.cancelled;
}

void EventQueue::Compact() {
  auto keep = heap_.begin();
  for (const HeapEntry& e : heap_) {
    if (slots_[e.slot()].cancelled) {
      FreeSlot(e.slot());
    } else {
      *keep++ = e;
    }
  }
  heap_.erase(keep, heap_.end());
  for (size_t i = heap_.size() / kArity + 1; i-- > 0;) {
    if (i < heap_.size()) {
      SiftDown(i);
    }
  }
  cancelled_pending_ = 0;
}

inline int EventQueue::Front() {
  while (!heap_.empty() && slots_[heap_.front().slot()].cancelled) {
    uint32_t slot = heap_.front().slot();
    RemoveTop();
    FreeSlot(slot);
    --cancelled_pending_;
  }
  int source = heap_.empty() ? kNoSource : kHeapSource;
  if (tick_front_ != kNoSource &&
      (source == kNoSource ||
       EarlierEntry(ticks_[tick_front_].key, heap_.front()))) {
    source = tick_front_;
  }
  if (cpu_armed_ &&
      (source == kNoSource || EarlierEntry(cpu_key_, FrontKey(source)))) {
    source = kCpuSource;
  }
  return source;
}

inline void EventQueue::TakeFront(int source, Popped* out) {
  out->time = FrontKey(source).time;
  if (source == kCpuSource) {
    cpu_armed_ = false;
    out->tick = kCpuSlice;
    return;
  }
  if (source != kHeapSource) {
    out->tick = static_cast<uint32_t>(source);
    return;
  }
  out->tick = kNoTick;
  uint32_t slot = heap_.front().slot();
  out->fn = std::move(slots_[slot].fn);
  RemoveTop();
  FreeSlot(slot);
}

bool EventQueue::PopIfAtOrBefore(SimTime deadline, Popped* out) {
  int source = Front();
  if (source == kNoSource || FrontKey(source).time > deadline) {
    return false;
  }
  TakeFront(source, out);
  return true;
}

}  // namespace odsim
