#include "src/apps/bursty.h"

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(BurstyTest, RunsWorkloadOverTime) {
  TestBed bed;
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng());
  auto m = bed.MeasureFor(odsim::SimDuration::Zero());  // Reset accounting.
  workload.Start();
  m = bed.MeasureFor(odsim::SimDuration::Seconds(600));
  workload.Stop();
  // Ten minutes of half-active apps must consume real energy, and some CPU
  // work must have been attributed beyond the idle loop.
  EXPECT_GT(m.joules, 600 * 5.0);
  double busy_joules = m.joules - m.Process("Idle");
  EXPECT_GT(busy_joules, 0.0);
}

TEST(BurstyTest, DeterministicPerSeed) {
  double joules[2];
  for (int i = 0; i < 2; ++i) {
    TestBed bed(TestBed::Options{.seed = 77, .hw_pm = true});
    BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                            &bed.map(), &bed.rng());
    workload.Start();
    auto m = bed.MeasureFor(odsim::SimDuration::Seconds(300));
    workload.Stop();
    joules[i] = m.joules;
  }
  EXPECT_DOUBLE_EQ(joules[0], joules[1]);
}

TEST(BurstyTest, DifferentSeedsDiffer) {
  double joules[2];
  uint64_t seeds[2] = {101, 202};
  for (int i = 0; i < 2; ++i) {
    TestBed bed(TestBed::Options{.seed = seeds[i], .hw_pm = true});
    BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                            &bed.map(), &bed.rng());
    workload.Start();
    auto m = bed.MeasureFor(odsim::SimDuration::Seconds(300));
    workload.Stop();
    joules[i] = m.joules;
  }
  EXPECT_NE(joules[0], joules[1]);
}

TEST(BurstyTest, StatesEventuallyToggle) {
  TestBed bed;
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng());
  workload.Start();
  bool video_seen_active = false, video_seen_idle = false;
  // With 10%/minute switching, 60 minutes flips each app several times.
  for (int minute = 0; minute < 60; ++minute) {
    bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(60));
    video_seen_active |= workload.video_active();
    video_seen_idle |= !workload.video_active();
  }
  workload.Stop();
  EXPECT_TRUE(video_seen_active);
  EXPECT_TRUE(video_seen_idle);
}

TEST(BurstyTest, StopQuiescesWithinAMinuteWorkload) {
  TestBed bed;
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng());
  workload.Start();
  bed.sim().RunUntil(odsim::SimTime::Seconds(120));
  workload.Stop();
  bed.video().StopLooping();
  // After stop, in-flight units drain; no new minute ticks fire.
  bed.sim().RunUntil(odsim::SimTime::Seconds(300));
  auto m = bed.MeasureFor(odsim::SimDuration::Seconds(60));
  // Energy now flows at the idle resting rate only (no app activity).
  EXPECT_LT(m.average_watts(), 11.0);
}

}  // namespace
}  // namespace odapps
