// Fixed-delay lanes must be invisible in the pop order: a queue that routes
// some pushes to lanes pops exactly what an all-heap queue given the same
// pushes pops, through every read path (Pop, PopIfAtOrBefore, NextTime,
// empty) and under cancels, stale handles and deadlines that fall between
// lane fronts.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/util/rng.h"

namespace odsim {
namespace {

// The same event in both queues: `lane` went through PushLane, `heap`
// through Push at the same time.
struct HandlePair {
  EventHandle lane;
  EventHandle heap;
};

class LaneEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LaneEquivalenceTest, PopSequenceMatchesAllHeapQueue) {
  odutil::Rng rng(GetParam());
  // Odd seeds use more distinct delays than there are lanes, so the
  // heap fallback for the overflow delays is exercised too.
  const int delay_count =
      GetParam() % 2 == 0 ? 3 : static_cast<int>(EventQueue::kMaxLanes) + 4;
  std::vector<SimDuration> delays;
  for (int i = 0; i < delay_count; ++i) {
    // Multiples of 100 ms with 0 included: lane fronts collide with each
    // other, with heap entries, and with the current time.
    delays.push_back(SimDuration::Millis(100 * i));
  }
  // Seeds above 4 add two doomed pushes per lane push, so cancelled
  // entries outnumber live ones and lane compaction runs with survivors.
  const bool churn = GetParam() > 4;

  EventQueue lanes;
  EventQueue heap;
  std::vector<int> lane_fired;
  std::vector<int> heap_fired;
  std::vector<HandlePair> handles;
  SimTime now = SimTime::Zero();
  int next_id = 0;

  auto check_same_front = [&] {
    ASSERT_EQ(lanes.empty(), heap.empty());
    if (!heap.empty()) {
      ASSERT_EQ(lanes.NextTime(), heap.NextTime());
    }
  };
  auto fire = [&](EventQueue::Popped& a, EventQueue::Popped& b) {
    ASSERT_EQ(a.time, b.time);
    ASSERT_GE(a.time, now);
    now = a.time;
    a.fn();
    b.fn();
    ASSERT_EQ(lane_fired, heap_fired);
  };

  for (int step = 0; step < 4000; ++step) {
    const int op = rng.UniformInt(0, 9);
    if (op <= 3) {
      // Lane-shaped push: now + one of the fixed delays.
      SimDuration delay = delays[rng.UniformInt(0, delay_count - 1)];
      int id = next_id++;
      handles.push_back(HandlePair{
          lanes.PushLane(now, delay,
                         [&lane_fired, id] { lane_fired.push_back(id); }),
          heap.Push(now + delay,
                    [&heap_fired, id] { heap_fired.push_back(id); })});
      for (int doomed = 0; churn && doomed < 2; ++doomed) {
        lanes.PushLane(now, delay, [] { FAIL(); }).Cancel();
        heap.Push(now + delay, [] { FAIL(); }).Cancel();
      }
    } else if (op <= 5) {
      // Heap push at an arbitrary time, often equal to a lane timestamp.
      SimTime at = now + SimDuration::Millis(50 * rng.UniformInt(0, 30));
      int id = next_id++;
      handles.push_back(HandlePair{
          lanes.Push(at, [&lane_fired, id] { lane_fired.push_back(id); }),
          heap.Push(at, [&heap_fired, id] { heap_fired.push_back(id); })});
    } else if (op == 6 && !handles.empty()) {
      // Cancel any event ever pushed: pending, already fired, already
      // cancelled, or stale after its slot was recycled.
      HandlePair& h =
          handles[rng.UniformInt(0, static_cast<int>(handles.size()) - 1)];
      ASSERT_EQ(h.lane.pending(), h.heap.pending());
      h.lane.Cancel();
      h.heap.Cancel();
      ASSERT_FALSE(h.lane.pending());
    } else if (op == 7) {
      check_same_front();
      if (!heap.empty()) {
        EventQueue::Popped a = lanes.Pop();
        EventQueue::Popped b = heap.Pop();
        fire(a, b);
      }
    } else {
      // RunUntil: drain everything at or before a deadline that often
      // falls strictly between lane fronts, then move the clock to it.
      SimTime deadline = now + SimDuration::Millis(30 * rng.UniformInt(0, 20));
      for (;;) {
        EventQueue::Popped a;
        EventQueue::Popped b;
        bool got_a = lanes.PopIfAtOrBefore(deadline, &a);
        bool got_b = heap.PopIfAtOrBefore(deadline, &b);
        ASSERT_EQ(got_a, got_b);
        if (!got_a) {
          break;
        }
        fire(a, b);
      }
      now = deadline;
    }
    check_same_front();
  }
  while (!heap.empty()) {
    ASSERT_FALSE(lanes.empty());
    EventQueue::Popped a = lanes.Pop();
    EventQueue::Popped b = heap.Pop();
    fire(a, b);
  }
  EXPECT_TRUE(lanes.empty());
  EXPECT_GT(lane_fired.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Lane cancels are tracked per lane; they must never feed the heap's
// compaction trigger, whose threshold compares against the heap size.
TEST(EventLaneTest, CancelledLaneEntriesNeverCountTowardHeapCompaction) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(
        q.PushLane(SimTime::Zero(), SimDuration::Seconds(1), [] {}));
  }
  q.Push(SimTime::Seconds(5), [] {});
  for (EventHandle& h : handles) {
    h.Cancel();
    EXPECT_EQ(q.cancelled_count_for_testing(), 0u);
  }
  EXPECT_EQ(q.size_for_testing(), 1u);
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(5));
}

// The fleet shape: many timers re-arming on one period.  Lane storage
// follows the pending count, not the total number of events pushed.
TEST(EventLaneTest, SteadyStateLaneStorageIsBoundedByPendingEntries) {
  EventQueue q;
  constexpr int kTimers = 1000;
  const SimDuration period = SimDuration::Millis(500);
  for (int i = 0; i < kTimers; ++i) {
    q.PushLane(SimTime::Zero(), period, [] {});
  }
  EventQueue::Popped popped;
  for (int round = 0; round < 200 * kTimers; ++round) {
    ASSERT_TRUE(q.PopIfAtOrBefore(SimTime::Max(), &popped));
    q.PushLane(popped.time, period, [] {});
  }
  EXPECT_LE(q.lane_capacity_for_testing(), size_t{2 * kTimers});
}

// Armed and almost always cancelled, like RPC deadlines but on a lane:
// compaction keeps the ring bounded even though no entry ever reaches the
// front.
TEST(EventLaneTest, CancelHeavyLaneSoakKeepsStorageBounded) {
  EventQueue q;
  bool fired = false;
  q.PushLane(SimTime::Zero(), SimDuration::Seconds(10), [&] { fired = true; });
  for (int i = 0; i < 20000; ++i) {
    q.PushLane(SimTime::Zero(), SimDuration::Seconds(10), [] {}).Cancel();
    ASSERT_LE(q.lane_capacity_for_testing(), 256u) << "round " << i;
  }
  EXPECT_EQ(q.cancelled_count_for_testing(), 0u);
  q.Pop().fn();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
}

// Compaction can empty the lane that held the earliest front; the next
// pop must come from the remaining lanes and the heap.
TEST(EventLaneTest, CompactionThatEmptiesTheFrontLaneHandsOverTheFront) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 64; ++i) {
    doomed.push_back(
        q.PushLane(SimTime::Zero(), SimDuration::Seconds(1), [] { FAIL(); }));
  }
  q.PushLane(SimTime::Zero(), SimDuration::Seconds(2),
             [&] { order.push_back(2); });
  q.Push(SimTime::Seconds(5), [&] { order.push_back(5); });
  for (EventHandle& h : doomed) {
    h.Cancel();  // The last cancel compacts the 1 s lane to empty.
  }
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(2));
  while (!q.empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 5}));
}

TEST(EventLaneTest, StaleLaneHandleAfterSlotReuseIsInert) {
  EventQueue q;
  bool second_fired = false;
  EventHandle first =
      q.PushLane(SimTime::Zero(), SimDuration::Seconds(1), [] {});
  q.Pop();  // Fires (and recycles) the first event's slot.
  EventHandle second = q.PushLane(SimTime::Seconds(1), SimDuration::Seconds(1),
                                  [&] { second_fired = true; });
  EXPECT_FALSE(first.pending());
  first.Cancel();
  EXPECT_TRUE(second.pending());
  q.Pop().fn();
  EXPECT_TRUE(second_fired);
}

}  // namespace
}  // namespace odsim
