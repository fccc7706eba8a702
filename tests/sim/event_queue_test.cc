#include "src/sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace odsim {
namespace {

// Pops the earliest pending event, whatever its time.
bool PopNext(EventQueue& q, EventQueue::Popped* out) {
  return q.PopIfAtOrBefore(SimTime::Max(), out);
}

// True when nothing is pending.  Pops the earliest event if there is one,
// so it is only asked where the queue should be empty.
bool Drained(EventQueue& q) {
  EventQueue::Popped popped;
  return !PopNext(q, &popped);
}

// Runs every pending event in order.
void RunAll(EventQueue& q) {
  EventQueue::Popped popped;
  while (PopNext(q, &popped)) {
    popped.fn();
  }
}

TEST(EventQueueTest, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(Drained(q));
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(SimTime::Seconds(3), [&] { order.push_back(3); });
  q.Push(SimTime::Seconds(1), [&] { order.push_back(1); });
  q.Push(SimTime::Seconds(2), [&] { order.push_back(2); });
  RunAll(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(SimTime::Seconds(5), [&order, i] { order.push_back(i); });
  }
  RunAll(q);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, PopsTheEarliestTimeFirst) {
  EventQueue q;
  q.Push(SimTime::Seconds(9), [] {});
  q.Push(SimTime::Seconds(4), [] {});
  EventQueue::Popped popped;
  ASSERT_TRUE(PopNext(q, &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(4));
}

TEST(EventQueueTest, CancelledEventIsSkipped) {
  EventQueue q;
  bool fired = false;
  EventHandle handle = q.Push(SimTime::Seconds(1), [&] { fired = true; });
  q.Push(SimTime::Seconds(2), [] {});
  handle.Cancel();
  EventQueue::Popped popped;
  ASSERT_TRUE(PopNext(q, &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(2));
  EXPECT_TRUE(Drained(q));
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle handle = q.Push(SimTime::Seconds(1), [] {});
  EventQueue::Popped popped;
  ASSERT_TRUE(PopNext(q, &popped));
  popped.fn();
  handle.Cancel();  // Must not crash or corrupt.
  EXPECT_TRUE(Drained(q));
}

// An event is pending until it pops or is cancelled: a cancelled one never
// pops, and cancelling a fired or default handle leaves the queue alone.
TEST(EventQueueTest, PendingLifecycle) {
  EventQueue q;
  EventHandle handle = q.Push(SimTime::Seconds(1), [] {});
  handle.Cancel();
  EXPECT_TRUE(Drained(q));

  EventHandle fired = q.Push(SimTime::Seconds(2), [] {});
  EventQueue::Popped popped;
  ASSERT_TRUE(PopNext(q, &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(2));
  q.Push(SimTime::Seconds(3), [] {});
  fired.Cancel();
  EventHandle empty;
  empty.Cancel();
  ASSERT_TRUE(PopNext(q, &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(3));
}

TEST(EventQueueTest, AllCancelledMeansEmpty) {
  EventQueue q;
  EventHandle a = q.Push(SimTime::Seconds(1), [] {});
  EventHandle b = q.Push(SimTime::Seconds(2), [] {});
  a.Cancel();
  b.Cancel();
  EXPECT_TRUE(Drained(q));
}

TEST(EventQueueTest, CopiedHandleCancelsSameEvent) {
  EventQueue q;
  bool fired = false;
  EventHandle a = q.Push(SimTime::Seconds(1), [&] { fired = true; });
  EventHandle b = a;
  b.Cancel();
  EXPECT_TRUE(Drained(q));
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, PopIfAtOrBeforeRespectsDeadline) {
  EventQueue q;
  q.Push(SimTime::Seconds(5), [] {});
  EventQueue::Popped popped;
  EXPECT_FALSE(q.PopIfAtOrBefore(SimTime::Seconds(4), &popped));
  // The refused pop left the event pending.
  ASSERT_TRUE(q.PopIfAtOrBefore(SimTime::Seconds(5), &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(5));
  EXPECT_FALSE(q.PopIfAtOrBefore(SimTime::Max(), &popped));
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsInert) {
  EventQueue q;
  bool second_fired = false;
  EventHandle first = q.Push(SimTime::Seconds(1), [] {});
  EventQueue::Popped popped;
  ASSERT_TRUE(PopNext(q, &popped));  // Fires (and recycles) the first slot.
  // The recycled slot is reused by the next push; the stale handle must
  // not cancel the new occupant.
  q.Push(SimTime::Seconds(2), [&] { second_fired = true; });
  first.Cancel();
  ASSERT_TRUE(PopNext(q, &popped));
  popped.fn();
  EXPECT_TRUE(second_fired);
}

// RPC deadline timers are armed per call and almost always cancelled; the
// pending set must stay bounded by the live-event count, not by the total
// cancel traffic.
TEST(EventQueueTest, CancelHeavySoakKeepsHeapBounded) {
  EventQueue q;
  std::vector<int> order;
  constexpr int kRounds = 20000;
  SimTime far = SimTime::Seconds(1e6);
  for (int i = 0; i < kRounds; ++i) {
    // A deadline far in the future, cancelled immediately — the lazy-
    // cancellation worst case: it would never reach the top of the heap.
    EventHandle deadline = q.Push(far, [] {});
    deadline.Cancel();
    // Cancelled closures are released eagerly and compaction keeps the
    // heap itself bounded.
    EXPECT_LE(q.size_for_testing(), 256u) << "round " << i;
    EXPECT_LE(q.cancelled_count_for_testing(), 128u) << "round " << i;
  }
  // A live event scheduled after the churn still pops, in order.
  q.Push(SimTime::Seconds(2), [&] { order.push_back(2); });
  q.Push(SimTime::Seconds(1), [&] { order.push_back(1); });
  RunAll(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Compaction must not perturb the (time, seq) pop order of surviving
// events, including FIFO ties.
TEST(EventQueueTest, CompactionPreservesPopOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 300; ++i) {
    int bucket = i % 10;
    q.Push(SimTime::Seconds(bucket), [&order, i] { order.push_back(i); });
    // Two doomed per live event, so cancelled entries outnumber live ones
    // and the cancel loop crosses the compaction threshold.
    doomed.push_back(q.Push(SimTime::Seconds(1000 + bucket), [] {}));
    doomed.push_back(q.Push(SimTime::Seconds(2000 + bucket), [] {}));
  }
  for (EventHandle& h : doomed) {
    h.Cancel();  // Triggers at least one threshold compaction.
  }
  std::vector<int> popped_order;
  RunAll(q);
  // Survivors fire grouped by time bucket, FIFO within a bucket.
  ASSERT_EQ(order.size(), 300u);
  for (size_t i = 1; i < order.size(); ++i) {
    int prev = order[i - 1];
    int cur = order[i];
    if (prev % 10 == cur % 10) {
      EXPECT_LT(prev, cur) << "FIFO violated within an equal-time bucket";
    } else {
      EXPECT_LT(prev % 10, cur % 10) << "time order violated";
    }
  }
}

}  // namespace
}  // namespace odsim
