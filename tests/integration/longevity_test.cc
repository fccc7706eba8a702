// Longevity / scale smoke test: a simulated day of the bursty workload.
// Guards against event-queue leaks, drifting accumulators, and anything
// whose cost grows with simulated time.

#include <gtest/gtest.h>

#include "src/apps/bursty.h"
#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(LongevityTest, TwentyFourHourBurstyDay) {
  TestBed bed(TestBed::Options{.seed = 4242, .hw_pm = true});
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng());
  workload.Start();

  constexpr double kDay = 24.0 * 3600.0;
  auto m = bed.MeasureFor(odsim::SimDuration::Seconds(kDay));
  workload.Stop();
  bed.video().StopLooping();

  EXPECT_DOUBLE_EQ(m.seconds, kDay);
  // Sanity bounds: between the all-off floor and the all-on ceiling.
  EXPECT_GT(m.average_watts(), 3.5);
  EXPECT_LT(m.average_watts(), 13.0);

  // Accounting is still exhaustive after ~10^5 scheduling events.
  double by_component = 0.0;
  for (const auto& [name, joules] : m.by_component) {
    by_component += joules;
  }
  EXPECT_NEAR(by_component, m.joules, 1e-6 * m.joules);
  double by_process = 0.0;
  for (const auto& [name, joules] : m.by_process) {
    by_process += joules;
  }
  EXPECT_NEAR(by_process, m.joules, 1e-6 * m.joules);
}

TEST(LongevityTest, RepeatedMeasurementsDoNotDrift) {
  // Ten consecutive Measure() calls on one bed: each resets cleanly.
  TestBed bed(TestBed::Options{.seed = 4243, .hw_pm = true});
  // Let the disk reach standby first so every iteration sees the same
  // resting state.
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  double first = 0.0;
  for (int i = 0; i < 10; ++i) {
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.web().BrowsePage(StandardWebImages()[1], std::move(done));
    });
    if (i == 0) {
      first = m.joules;
    } else {
      EXPECT_NEAR(m.joules, first, 0.15 * first) << "iteration " << i;
    }
  }
}

}  // namespace
}  // namespace odapps
