#include "src/sim/event_queue.h"

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

inline void EventQueue::FreeSlot(uint32_t slot) const {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.cancelled = false;
  s.lane = kHeapLane;
  ++s.gen;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::SiftUp(size_t i) const {
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

void EventQueue::SiftDown(size_t i) const {
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

void EventQueue::RemoveTop() const {
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

void EventQueue::Lane::Grow() {
  std::vector<HeapEntry> grown(ring.empty() ? 16 : ring.size() * 2);
  for (size_t i = 0; i < count; ++i) {
    grown[i] = at(i);
  }
  ring.swap(grown);
  head = 0;
}

EventHandle EventQueue::PushLane(SimTime now, SimDuration delay, EventFn fn) {
  const SimTime at = now + delay;
  size_t index = 0;
  while (index < lanes_.size() && lanes_[index].delay != delay) {
    ++index;
  }
  if (index == lanes_.size()) {
    if (index == kMaxLanes) {
      return Push(at, std::move(fn));
    }
    lanes_.push_back(Lane{delay});
  }
  Lane& lane = lanes_[index];
  // The O(1) push is exact only while the lane stays sorted: the new
  // entry must not be earlier than the back (the fresh seq breaks ties).
  OD_CHECK(lane.count == 0 || at >= lane.back().time);
  uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.lane = static_cast<uint8_t>(index);
  lane.PushBack(HeapEntry{at, (next_seq_++ << kSlotBits) | uint64_t{slot}});
  // Only this lane's front can have appeared.
  if (lane.count == 1 &&
      (lane_front_ == kNoSource ||
       EarlierEntry(lane.front(), lanes_[lane_front_].front()))) {
    lane_front_ = static_cast<int>(index);
  }
  return EventHandle(this, slot, s.gen);
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
  if (s.lane != kHeapLane) {
    Lane& lane = lanes_[s.lane];
    ++lane.cancelled;
    if (lane.cancelled >= kCompactMinCancelled &&
        lane.cancelled * 2 > lane.count) {
      CompactLane(lane);
    }
    return;
  }
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

void EventQueue::CompactLane(Lane& lane) {
  size_t kept = 0;
  for (size_t i = 0; i < lane.count; ++i) {
    const HeapEntry e = lane.at(i);
    if (slots_[e.slot()].cancelled) {
      FreeSlot(e.slot());
    } else {
      lane.at(kept++) = e;
    }
  }
  lane.count = kept;
  lane.cancelled = 0;
  RescanLanes();
}

inline void EventQueue::RescanLanes() const {
  lane_front_ = kNoSource;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (lane.count != 0 &&
        (lane_front_ == kNoSource ||
         EarlierEntry(lane.front(), lanes_[lane_front_].front()))) {
      lane_front_ = static_cast<int>(i);
    }
  }
}

inline int EventQueue::Front() const {
  for (;;) {
    int best = heap_.empty() ? kNoSource : kHeapSource;
    if (lane_front_ != kNoSource &&
        (best == kNoSource ||
         EarlierEntry(lanes_[lane_front_].front(), heap_.front()))) {
      best = lane_front_;
    }
    if (best == kNoSource || !slots_[FrontEntry(best).slot()].cancelled) {
      return best;
    }
    if (best == kHeapSource) {
      --cancelled_pending_;
    } else {
      --lanes_[best].cancelled;
    }
    RemoveFront(best);
  }
}

inline void EventQueue::RemoveFront(int source) const {
  uint32_t slot = FrontEntry(source).slot();
  if (source == kHeapSource) {
    RemoveTop();
  } else {
    lanes_[source].PopFront();
    RescanLanes();
  }
  FreeSlot(slot);
}

inline void EventQueue::TakeFront(int source, Popped* out) {
  const HeapEntry& front = FrontEntry(source);
  out->time = front.time;
  out->fn = std::move(slots_[front.slot()].fn);
  RemoveFront(source);
}

bool EventQueue::empty() const { return Front() == kNoSource; }

SimTime EventQueue::NextTime() const {
  int source = Front();
  OD_CHECK(source != kNoSource);
  return FrontEntry(source).time;
}

EventQueue::Popped EventQueue::Pop() {
  int source = Front();
  OD_CHECK(source != kNoSource);
  Popped popped;
  TakeFront(source, &popped);
  return popped;
}

bool EventQueue::PopIfAtOrBefore(SimTime deadline, Popped* out) {
  int source = Front();
  if (source == kNoSource || FrontEntry(source).time > deadline) {
    return false;
  }
  TakeFront(source, out);
  return true;
}

size_t EventQueue::lane_capacity_for_testing() const {
  size_t capacity = 0;
  for (const Lane& lane : lanes_) {
    capacity += lane.ring.size();
  }
  return capacity;
}

}  // namespace odsim
