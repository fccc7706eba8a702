// Schedule record/replay for the bursty workload: an observed stochastic
// run can be reproduced exactly, and hand-written schedules can be driven.

#include <gtest/gtest.h>

#include "src/apps/bursty.h"
#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(BurstyReplayTest, RecordsOneEntryPerMinute) {
  TestBed bed;
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng());
  workload.Start();
  bed.sim().RunUntil(odsim::SimTime::Seconds(5 * 60 + 1));
  workload.Stop();
  EXPECT_EQ(workload.recorded_schedule().minutes.size(), 6u);  // t=0..5 min.
}

TEST(BurstyReplayTest, ReplayReproducesRecordedStates) {
  // Record a stochastic run...
  MinuteSchedule recorded;
  {
    TestBed bed(TestBed::Options{.seed = 606, .hw_pm = true});
    BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                            &bed.map(), &bed.rng());
    workload.Start();
    bed.sim().RunUntil(odsim::SimTime::Seconds(10 * 60));
    workload.Stop();
    recorded = workload.recorded_schedule();
  }
  ASSERT_FALSE(recorded.empty());

  // ...replay it under a different seed: the activity states must match
  // minute for minute (only the fine-grained jitter differs).
  TestBed bed(TestBed::Options{.seed = 999, .hw_pm = true});
  BurstyWorkload::Config config;
  config.replay = recorded;
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng(), config);
  workload.Start();
  bed.sim().RunUntil(odsim::SimTime::Seconds(10 * 60));
  workload.Stop();
  EXPECT_EQ(workload.recorded_schedule().minutes, recorded.minutes);
}

TEST(BurstyReplayTest, HandWrittenSchedule) {
  // Video-only for two minutes, then everything idle.
  MinuteSchedule schedule;
  schedule.minutes.push_back({true, false, false, false});
  schedule.minutes.push_back({true, false, false, false});
  schedule.minutes.push_back({false, false, false, false});

  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  BurstyWorkload::Config config;
  config.replay = schedule;
  BurstyWorkload workload(&bed.sim(), &bed.video(), &bed.speech(), &bed.web(),
                          &bed.map(), &bed.rng(), config);
  workload.Start();
  bed.sim().RunUntil(odsim::SimTime::Seconds(30));
  EXPECT_TRUE(workload.video_active());
  EXPECT_FALSE(workload.map_active());
  EXPECT_TRUE(bed.video().playing());
  // After minute 2 the schedule goes idle (and repeats its last entry).
  bed.sim().RunUntil(odsim::SimTime::Seconds(4 * 60));
  EXPECT_FALSE(workload.video_active());
  EXPECT_FALSE(bed.video().playing());
  workload.Stop();
}

}  // namespace
}  // namespace odapps
