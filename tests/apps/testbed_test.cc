#include "src/apps/testbed.h"

#include <gtest/gtest.h>

#include "src/apps/data_objects.h"

namespace odapps {
namespace {

TEST(TestBedTest, MeasureAccountsAllEnergy) {
  TestBed bed;
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.web().BrowsePage(StandardWebImages()[1], std::move(done));
  });
  // Component energies (plus synergy) sum to the total.
  double component_sum = 0.0;
  for (const auto& [name, joules] : m.by_component) {
    component_sum += joules;
  }
  EXPECT_NEAR(component_sum, m.joules, 1e-6);
  // Process attribution is exhaustive too.
  double process_sum = 0.0;
  for (const auto& [name, joules] : m.by_process) {
    process_sum += joules;
  }
  EXPECT_NEAR(process_sum, m.joules, 1e-6);
}

TEST(TestBedTest, MeasureResetsBetweenCalls) {
  TestBed bed;
  auto first = bed.Measure([&](odsim::EventFn done) {
    bed.web().BrowsePage(StandardWebImages()[1], std::move(done));
  });
  auto second = bed.Measure([&](odsim::EventFn done) {
    bed.web().BrowsePage(StandardWebImages()[1], std::move(done));
  });
  // Same workload, so same ballpark — and crucially not cumulative.
  EXPECT_NEAR(second.joules, first.joules, 0.3 * first.joules);
}

TEST(TestBedTest, HardwarePmTogglesRestingStates) {
  TestBed bed;
  // Power management is off by default: the idle network stays awake.
  EXPECT_NE(bed.laptop().wavelan().wavelan_state(),
            odpower::WaveLanState::kStandby);
  bed.SetHardwarePm(true);
  EXPECT_EQ(bed.laptop().wavelan().wavelan_state(),
            odpower::WaveLanState::kStandby);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

TEST(TestBedTest, PrioritiesFollowSection5) {
  TestBed bed;
  EXPECT_LT(bed.speech().priority(), bed.video().priority());
  EXPECT_LT(bed.video().priority(), bed.map().priority());
  EXPECT_LT(bed.map().priority(), bed.web().priority());
}

TEST(TestBedTest, AllFourAppsRegistered) {
  TestBed bed;
  EXPECT_EQ(bed.viceroy().applications().size(), 4u);
}

TEST(TestBedTest, MeasureForTracksWallTime) {
  TestBed bed;
  auto m = bed.MeasureFor(odsim::SimDuration::Seconds(10));
  EXPECT_DOUBLE_EQ(m.seconds, 10.0);
  // Idle machine: display bright + disk/net idle, about 9.5-10 W.
  EXPECT_GT(m.average_watts(), 8.5);
  EXPECT_LT(m.average_watts(), 11.0);
}

TEST(TestBedTest, SeedsReproduceMeasurements) {
  double joules[2];
  for (int i = 0; i < 2; ++i) {
    TestBed bed(TestBed::Options{.seed = 5, .hw_pm = false});
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.map().ViewMap(StandardMaps()[2], std::move(done));
    });
    joules[i] = m.joules;
  }
  EXPECT_DOUBLE_EQ(joules[0], joules[1]);
}

}  // namespace
}  // namespace odapps
