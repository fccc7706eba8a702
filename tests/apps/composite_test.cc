#include "src/apps/composite.h"

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(CompositeTest, RunsRequestedIterations) {
  TestBed bed;
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  bool done = false;
  composite.RunIterations(3, [&] { done = true; });
  bed.sim().RunUntil(odsim::SimTime::Seconds(600));
  EXPECT_TRUE(done);
  EXPECT_EQ(composite.completed_iterations(), 3);
}

TEST(CompositeTest, ZeroIterationsCompletesImmediately) {
  TestBed bed;
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  bool done = false;
  composite.RunIterations(0, [&] { done = true; });
  EXPECT_TRUE(done);
}

TEST(CompositeTest, SixIterationDurationPlausible) {
  // The paper's six-iteration experiment takes 80-160 seconds; ours lands in
  // the same regime (somewhat longer, dominated by recognition time).
  TestBed bed;
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  auto m = bed.Measure([&](odsim::EventFn done) {
    composite.RunIterations(6, std::move(done));
  });
  EXPECT_GT(m.seconds, 80.0);
  EXPECT_LT(m.seconds, 250.0);
}

TEST(CompositeTest, PeriodicPacing) {
  TestBed bed;
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  composite.StartPeriodic(odsim::SimDuration::Seconds(40));
  bed.sim().RunUntil(odsim::SimTime::Seconds(200));
  composite.Stop();
  // Iterations take ~25-30 s < 40 s period: one per period.
  EXPECT_EQ(composite.completed_iterations(), 5);
}

TEST(CompositeTest, PeriodicOverrunStartsImmediately) {
  TestBed bed;
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  // Period shorter than an iteration: back-to-back execution.
  composite.StartPeriodic(odsim::SimDuration::Seconds(1));
  bed.sim().RunUntil(odsim::SimTime::Seconds(120));
  composite.Stop();
  EXPECT_GE(composite.completed_iterations(), 3);
}

TEST(CompositeTest, StopPreventsFurtherIterations) {
  TestBed bed;
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  composite.StartPeriodic(odsim::SimDuration::Seconds(30));
  bed.sim().RunUntil(odsim::SimTime::Seconds(40));
  composite.Stop();
  int at_stop = composite.completed_iterations();
  bed.sim().RunUntil(odsim::SimTime::Seconds(400));
  // At most the in-flight iteration completes after Stop.
  EXPECT_LE(composite.completed_iterations(), at_stop + 1);
}

TEST(CompositeTest, HoldsDisplayWhenArbiterGiven) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map(),
                         &bed.arbiter());
  bool done = false;
  composite.RunIterations(1, [&] { done = true; });
  // During the first speech segment the display stays bright (the user is
  // at the screen), even though speech alone would allow it off.
  bed.sim().RunUntil(odsim::SimTime::Seconds(2));
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kBright);
  bed.sim().RunUntil(odsim::SimTime::Seconds(300));
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

TEST(CompositeTest, WithoutArbiterSpeechLeavesDisplayOff) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map());
  composite.RunIterations(1, nullptr);
  bed.sim().RunUntil(odsim::SimTime::Seconds(2));
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

}  // namespace
}  // namespace odapps
