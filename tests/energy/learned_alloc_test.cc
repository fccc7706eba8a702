// Allocation budget of the learned estimator's sample path.
//
// An allocation gate (tests/alloc_count.h).  The probe writes each
// sample's window and snapshot features into buffers the estimator owns,
// and the model updates in place, so once every state combination the
// machine visits has its excitation record, a sample allocates nothing,
// whether it trains the model or not.  The drift sentinel's window reuses
// its storage once it spans its length.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/energy/learned_estimator.h"
#include "src/power/component.h"
#include "src/power/machine.h"
#include "src/sim/simulator.h"
#include "tests/alloc_count.h"

namespace odenergy {
namespace {

using odtest::Allocations;

// A three-component machine whose states follow a fixed 12-sample cycle,
// sampled at 10 Hz as the goal director samples its gauge.
struct Rig {
  odsim::Simulator sim;
  odpower::Machine machine{&sim, 0.0};
  odpower::Component* cpu = machine.AddComponent(
      std::make_unique<odpower::Component>("cpu", std::vector<double>{1.0, 4.0}, 0));
  odpower::Component* radio = machine.AddComponent(
      std::make_unique<odpower::Component>(
          "radio", std::vector<double>{0.2, 1.5, 2.0}, 0));
  odpower::Component* disk = machine.AddComponent(
      std::make_unique<odpower::Component>(
          "disk", std::vector<double>{0.1, 0.9, 2.3, 3.0}, 0));
  LearnedEstimator estimator{&machine, sim.Now()};
  int step = 0;

  // Runs `count` samples, training the model when `train`.
  void Sample(int count, bool train) {
    for (int i = 0; i < count; ++i, ++step) {
      cpu->SetState(step % 2);
      radio->SetState((step / 2) % 3);
      disk->SetState((step / 3) % 4);
      sim.RunUntil(sim.Now() + odsim::SimDuration::Millis(100));
      estimator.OnSample(sim.Now(), machine.TotalPower(), train);
    }
  }
};

TEST(LearnedAllocTest, WarmSampleAllocatesNothing) {
  Rig rig;
  // Warm-up: one pass of the cycle gives every state combination its
  // excitation record.
  rig.Sample(12, /*train=*/true);

  uint64_t before = Allocations();
  rig.Sample(1200, /*train=*/true);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(rig.estimator.model().samples(), 1212);

  before = Allocations();
  rig.Sample(1200, /*train=*/false);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(rig.estimator.model().samples(), 1212);
}

// The drift sentinel's sliding window at the director's 10 Hz: once the
// window spans kWindowSeconds, each interval pushed retires one, and the
// window's storage is reused.
TEST(LearnedAllocTest, WarmSentinelIntervalAllocatesNothing) {
  DriftSentinel sentinel;
  auto feed = [&](int count) {
    for (int i = 0; i < count; ++i) {
      sentinel.AddInterval(0.1, 1.0 + 0.01 * (i % 7), 1.0, i % 3 != 0);
    }
  };
  feed(1000);

  const uint64_t before = Allocations();
  feed(10000);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_TRUE(sentinel.WindowJudgeable());
}

}  // namespace
}  // namespace odenergy
