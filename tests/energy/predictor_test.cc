#include "src/energy/predictor.h"

#include <gtest/gtest.h>

namespace odenergy {
namespace {

TEST(PredictorTest, DemandIsSmoothedPowerTimesRemaining) {
  DemandPredictor predictor(0.10);
  predictor.AddSample(10.0, 0.1, 1000.0);
  EXPECT_NEAR(predictor.PredictedDemandJoules(600.0), 6000.0, 1e-9);
}

TEST(PredictorTest, ZeroRemainingMeansZeroDemand) {
  DemandPredictor predictor(0.10);
  predictor.AddSample(10.0, 0.1, 1000.0);
  EXPECT_DOUBLE_EQ(predictor.PredictedDemandJoules(0.0), 0.0);
  EXPECT_DOUBLE_EQ(predictor.PredictedDemandJoules(-5.0), 0.0);
}

TEST(PredictorTest, HalfLifeScalesWithRemainingTime) {
  // With the goal distant, smoothing is stable: a single outlier sample
  // barely moves the estimate.  Near the goal, the same outlier moves it
  // much more (Section 5.1.2's agility-vs-stability trade).
  DemandPredictor far(0.10), near(0.10);
  far.AddSample(10.0, 0.1, 3000.0);
  near.AddSample(10.0, 0.1, 3000.0);
  far.AddSample(30.0, 0.1, 3000.0);  // Goal still 3000 s away.
  near.AddSample(30.0, 0.1, 10.0);   // Goal 10 s away.
  EXPECT_LT(far.smoothed_watts(), near.smoothed_watts());
}

TEST(PredictorTest, TenPercentHalfLifeExample) {
  // "If 30 minutes remain, the present estimate will be weighted equally
  // with more recent samples after 3 minutes have passed" (Section 5.1.2).
  DemandPredictor predictor(0.10);
  predictor.AddSample(100.0, 0.1, 1800.0);
  // 3 minutes of zero samples at 30 minutes remaining.
  for (int i = 0; i < 1800; ++i) {
    predictor.AddSample(0.0, 0.1, 1800.0);
  }
  EXPECT_NEAR(predictor.smoothed_watts(), 50.0, 0.5);
}

TEST(PredictorTest, ResetClearsState) {
  DemandPredictor predictor(0.10);
  predictor.AddSample(10.0, 0.1, 100.0);
  predictor.Reset();
  EXPECT_DOUBLE_EQ(predictor.smoothed_watts(), 0.0);
  // Uninitialized again: the next sample is taken as is.
  predictor.AddSample(4.0, 0.1, 100.0);
  EXPECT_DOUBLE_EQ(predictor.smoothed_watts(), 4.0);
}

TEST(PredictorTest, MinimumHalfLifeClampNearGoal) {
  // At one second remaining, the half-life clamps at 1 s, so one 0.1 s
  // sample cannot dominate the estimate.
  DemandPredictor predictor(0.10);
  predictor.AddSample(10.0, 0.1, 1.0);
  predictor.AddSample(100.0, 0.1, 1.0);
  EXPECT_LT(predictor.smoothed_watts(), 20.0);
}

}  // namespace
}  // namespace odenergy
