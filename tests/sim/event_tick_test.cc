// Periodic ticks must be invisible in the callback order: N timers that
// re-arm themselves with Schedule at the end of each call and the same N
// subscribed with Every run the same callbacks at the same instants, under
// cancels (including a timer cancelling itself), Stop() mid-tick, new
// subscriptions from inside a tick, and heap events in between.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odsim {
namespace {

// Timers live on a 1 ms grid; heap noise lives half a millisecond off it.
// A tick draws one key for all its subscribers, so it is not exact when an
// event is scheduled for its instant between two subscriptions to it, or
// by a subscriber after the first while it fires.  Neither arises here:
// noise (never a timer) schedules the start events, and a timer starts
// others only with a period other than its own.
class World {
 public:
  World(uint64_t seed, bool ticks) : rng_(seed), ticks_(ticks) {}

  struct Call {
    int timer;
    int64_t us;
    bool operator==(const Call&) const = default;
  };

  void Start(SimDuration period) {
    const int id = static_cast<int>(timers_.size());
    timers_.push_back(Timer{period});
    ++live_;
    if (ticks_) {
      timers_.back().sub = sim_.Every(period, [this, id] { OnTimer(id); });
    } else {
      Arm(id);
    }
  }

  void Noise(SimDuration delay) {
    sim_.Schedule(delay, [this] { OnNoise(); });
  }

  // Runs to `horizon` in random chunks; every return of RunUntil (a Stop()
  // or a chunk end) is marked with the number of calls made so far.
  void Drive(SimTime horizon) {
    while (sim_.Now() < horizon) {
      SimTime deadline = sim_.Now() + SimDuration::Micros(rng_.UniformInt(
                                          0, 40000));
      sim_.RunUntil(deadline < horizon ? deadline : horizon);
      marks_.push_back(calls_.size());
    }
  }

  const std::vector<Call>& calls() const { return calls_; }
  const std::vector<size_t>& marks() const { return marks_; }
  int stops() const { return stops_; }
  uint64_t events() const { return sim_.events_processed(); }

 private:
  struct Timer {
    SimDuration period;
    EventHandle next;
    PeriodicHandle sub;
    bool cancelled = false;
  };

  SimDuration RandomPeriod() {
    static constexpr int kPeriodsMs[] = {2, 3, 5, 10};
    return SimDuration::Millis(kPeriodsMs[rng_.UniformInt(0, 3)]);
  }

  void Arm(int id) {
    timers_[static_cast<size_t>(id)].next = sim_.Schedule(
        timers_[static_cast<size_t>(id)].period, [this, id] { OnTimer(id); });
  }

  void Cancel(int id) {
    Timer& t = timers_[static_cast<size_t>(id)];
    live_ -= t.cancelled ? 0 : 1;
    t.cancelled = true;
    t.next.Cancel();
    t.sub.Cancel();
  }

  void OnTimer(int id) {
    calls_.push_back(Call{id, sim_.Now().micros()});
    const int op = rng_.UniformInt(0, 29);
    if (op == 0) {
      Cancel(rng_.UniformInt(0, static_cast<int>(timers_.size()) - 1));
    } else if (op == 1) {
      Cancel(id);
    } else if (op == 2 && live_ < kMaxLive) {
      SimDuration period = RandomPeriod();
      if (period != timers_[static_cast<size_t>(id)].period) {
        Start(period);  // Subscribes from inside a tick.
      }
    } else if (op <= 5) {
      Noise(SimDuration::Micros(1000 * rng_.UniformInt(0, 8) + 500));
    } else if (op == 6) {
      ++stops_;
      sim_.Stop();
    }
    if (!ticks_ && !timers_[static_cast<size_t>(id)].cancelled) {
      Arm(id);
    }
  }

  void OnNoise() {
    calls_.push_back(Call{-1, sim_.Now().micros()});
    const int op = rng_.UniformInt(0, 5);
    if (op <= 1 && live_ < kMaxLive) {
      // A start event on the grid; several often land on one instant.
      sim_.Schedule(SimDuration::Micros(1000 * rng_.UniformInt(0, 3) + 500),
                    [this] {
                      Start(RandomPeriod());
                      if (rng_.Bernoulli(0.5)) {
                        Start(RandomPeriod());
                      }
                    });
    } else if (op == 2) {
      Cancel(rng_.UniformInt(0, static_cast<int>(timers_.size()) - 1));
    }
    if (rng_.Bernoulli(0.7)) {
      Noise(SimDuration::Millis(rng_.UniformInt(1, 6)));
    }
  }

  static constexpr int kMaxLive = 24;

  Simulator sim_;
  odutil::Rng rng_;
  const bool ticks_;
  std::vector<Timer> timers_;
  int live_ = 0;
  std::vector<Call> calls_;
  std::vector<size_t> marks_;
  int stops_ = 0;
};

class TickEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TickEquivalenceTest, CallbackSequenceMatchesSelfRearmingTimers) {
  World rearm(GetParam(), /*ticks=*/false);
  World ticks(GetParam(), /*ticks=*/true);
  for (World* w : {&rearm, &ticks}) {
    for (int i = 0; i < 6; ++i) {
      w->Start(SimDuration::Millis(i % 2 == 0 ? 2 : 5));
    }
    w->Noise(SimDuration::Micros(500));
    w->Drive(SimTime::Seconds(2));
  }
  ASSERT_EQ(ticks.calls().size(), rearm.calls().size());
  for (size_t i = 0; i < rearm.calls().size(); ++i) {
    ASSERT_EQ(ticks.calls()[i], rearm.calls()[i]) << "call " << i;
  }
  EXPECT_EQ(ticks.marks(), rearm.marks());
  EXPECT_GT(rearm.calls().size(), 5000u);
  EXPECT_GT(rearm.stops(), 20);
  // Some Stop() landed mid-instant: the run after it resumed at the same
  // time (a chunk end never does, RunUntil drains its deadline).
  int resumed = 0;
  for (size_t m : ticks.marks()) {
    const auto& calls = ticks.calls();
    resumed += m > 0 && m < calls.size() && calls[m].us == calls[m - 1].us &&
               calls[m].timer >= 0 && calls[m - 1].timer >= 0;
  }
  EXPECT_GT(resumed, 0);
  // Shared ticks: fewer events for the same calls.
  EXPECT_LT(ticks.events(), rearm.events());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TickEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The closure of a subscriber that cancels itself is still running; it is
// destroyed only after the tick has called everyone, and the subscribers
// behind it still run in that tick.
TEST(EventTickTest, SelfCancelInsideOwnCallbackDefersTheErase) {
  Simulator sim;
  std::vector<int> order;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  PeriodicHandle self;
  sim.Every(SimDuration::Seconds(1), [&] { order.push_back(1); });
  self = sim.Every(SimDuration::Seconds(1), [&, token] {
    order.push_back(2);
    self.Cancel();
    EXPECT_FALSE(watch.expired()) << "closure destroyed while running";
    EXPECT_EQ(*token, 0);
  });
  token.reset();
  sim.Every(SimDuration::Seconds(1), [&] {
    order.push_back(3);
    if (sim.Now() == SimTime::Seconds(1)) {
      EXPECT_FALSE(watch.expired());
    }
  });
  sim.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 1, 3}));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(sim.events_processed(), 2u);
}

// Stop() inside a tick returns after the current subscriber; the next run
// resumes with the one behind it, before anything scheduled meanwhile for
// the same instant.
TEST(EventTickTest, StopMidTickResumesWithTheNextSubscriber) {
  Simulator sim;
  std::vector<int> order;
  sim.Every(SimDuration::Seconds(1), [&] {
    order.push_back(1);
    if (sim.Now() == SimTime::Seconds(1)) {
      sim.Schedule(SimDuration::Zero(), [&] { order.push_back(9); });
      sim.Stop();
    }
  });
  sim.Every(SimDuration::Seconds(1), [&] { order.push_back(2); });
  sim.Every(SimDuration::Seconds(1), [&] { order.push_back(3); });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(1));
  sim.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9, 1, 2, 3}));
}

// Stopping in the last live subscriber completes the tick: it re-arms
// then, as that subscriber's own re-arm would have.
TEST(EventTickTest, StopInTheLastSubscriberStillRearms) {
  Simulator sim;
  std::vector<int> order;
  sim.Every(SimDuration::Seconds(1), [&] { order.push_back(1); });
  sim.Every(SimDuration::Seconds(1), [&] {
    order.push_back(2);
    if (sim.Now() == SimTime::Seconds(1)) {
      sim.Stop();
    }
  });
  sim.RunUntil(SimTime::Seconds(5));
  sim.Schedule(SimDuration::Seconds(1), [&] { order.push_back(9); });
  sim.RunUntil(SimTime::Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 9}));
}

// Once every subscriber has cancelled, the tick is freed and its slot
// reused; the old handles must not reach the new tick's subscribers, and
// a second Cancel of one handle must not count twice.
TEST(EventTickTest, StaleHandleAfterTickIsFreedIsInert) {
  Simulator sim;
  int old_fired = 0;
  int new_fired = 0;
  PeriodicHandle first =
      sim.Every(SimDuration::Seconds(1), [&] { ++old_fired; });
  first.Cancel();  // Frees the tick.
  PeriodicHandle second =
      sim.Every(SimDuration::Seconds(1), [&] { ++new_fired; });
  first.Cancel();
  PeriodicHandle third = sim.Every(SimDuration::Seconds(1), [&] {});
  third.Cancel();
  third.Cancel();
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(old_fired, 0);
  EXPECT_EQ(new_fired, 3);
  second.Cancel();
  PeriodicHandle().Cancel();  // A default handle is inert too.
}

// Subscribing joins the tick with the same period and next call time, or
// opens one.  A subscription made while a tick fires opens a new tick,
// ahead of the firing one's re-arm; a later subscription joins the
// latest-keyed of the two.
TEST(EventTickTest, JoinsAMatchingTickOrOpensANewOne) {
  Simulator sim;
  std::vector<int> order;
  sim.Every(SimDuration::Seconds(1), [&] {
    order.push_back(1);
    if (sim.Now() == SimTime::Seconds(1)) {
      sim.Every(SimDuration::Seconds(1), [&] { order.push_back(4); });
    }
  });
  sim.Every(SimDuration::Seconds(1), [&] { order.push_back(2); });  // Joins.
  sim.Schedule(SimDuration::Millis(500), [&] {
    sim.Every(SimDuration::Seconds(1), [&] { order.push_back(3); });  // Opens.
  });
  sim.Schedule(SimDuration::Seconds(1), [&] {
    sim.Every(SimDuration::Seconds(1), [&] { order.push_back(5); });
  });
  sim.RunUntil(SimTime::Seconds(2));
  // 0.5 s: heap; 1 s: tick {1,2}, heap; 1.5 s: tick {3}; 2 s: tick {4},
  // tick {1,2,5}.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 1, 2, 5}));
  EXPECT_EQ(sim.events_processed(), 6u);
}

// The fleet shape: a thousand subscribers on one period cost one event
// per period, and each is called once per period, in subscription order.
TEST(EventTickTest, ThousandSubscribersShareOneEventPerPeriod) {
  Simulator sim;
  constexpr int kSubscribers = 1000;
  std::vector<int> calls(kSubscribers, 0);
  int next = 0;
  bool in_order = true;
  for (int i = 0; i < kSubscribers; ++i) {
    sim.Every(SimDuration::Millis(500), [&, i] {
      in_order = in_order && i == next;
      next = (i + 1) % kSubscribers;
      ++calls[static_cast<size_t>(i)];
    });
  }
  sim.RunUntil(SimTime::Seconds(100));
  EXPECT_EQ(sim.events_processed(), 200u);
  EXPECT_TRUE(in_order);
  for (int c : calls) {
    ASSERT_EQ(c, 200);
  }
}

// Freeing the tick that holds the earliest key hands the front to the
// next tick or heap event.
TEST(EventTickTest, FreeingTheFrontTickHandsOverTheFront) {
  EventQueue q;
  std::vector<int> order;
  std::vector<PeriodicHandle> doomed;
  for (int i = 0; i < 64; ++i) {
    doomed.push_back(
        q.Every(SimTime::Zero(), SimDuration::Seconds(1), [] { FAIL(); }));
  }
  q.Every(SimTime::Zero(), SimDuration::Seconds(2), [&] { order.push_back(2); });
  q.Push(SimTime::Seconds(3), [&] { order.push_back(3); });
  // A popped tick keeps its key until it fires, so this pop only looks.
  EventQueue::Popped popped;
  ASSERT_TRUE(q.PopIfAtOrBefore(SimTime::Max(), &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(1));
  for (PeriodicHandle& h : doomed) {
    h.Cancel();  // The last cancel frees the 1 s tick.
  }
  const bool stopped = false;
  std::vector<SimTime> times;
  while (q.PopIfAtOrBefore(SimTime::Seconds(4), &popped)) {
    times.push_back(popped.time);
    if (popped.tick == EventQueue::kNoTick) {
      popped.fn();
    } else {
      q.FireTick(popped.tick, stopped);
    }
  }
  EXPECT_EQ(times, (std::vector<SimTime>{SimTime::Seconds(2), SimTime::Seconds(3),
                                         SimTime::Seconds(4)}));
  EXPECT_EQ(order, (std::vector<int>{2, 3, 2}));
}

// Cancelled subscribers never reach the heap's compaction bookkeeping.
TEST(EventTickTest, CancelledSubscribersNeverCountTowardHeapCompaction) {
  EventQueue q;
  std::vector<PeriodicHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(q.Every(SimTime::Zero(), SimDuration::Seconds(1), [] {}));
  }
  q.Push(SimTime::Seconds(5), [] {});
  for (PeriodicHandle& h : handles) {
    h.Cancel();
    EXPECT_EQ(q.cancelled_count_for_testing(), 0u);
  }
  EXPECT_EQ(q.size_for_testing(), 1u);
  EventQueue::Popped popped;
  ASSERT_TRUE(q.PopIfAtOrBefore(SimTime::Max(), &popped));
  EXPECT_EQ(popped.time, SimTime::Seconds(5));
}

}  // namespace
}  // namespace odsim
