#include "src/energy/smoothing.h"

#include <cmath>

#include <gtest/gtest.h>

namespace odenergy {
namespace {

TEST(SmootherTest, FirstSampleInitializes) {
  ExponentialSmoother s;
  s.set_half_life(1.0);
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
  // Taken as is, not blended with the 0.0 held before it.
  s.Update(10.0, 1.0);
  EXPECT_DOUBLE_EQ(s.value(), 10.0);
}

TEST(SmootherTest, HalfLifeSemantics) {
  // After exactly one half-life of zero samples, the old estimate's weight
  // has halved.
  ExponentialSmoother s;
  s.set_half_life(10.0);
  s.Update(100.0, 1.0);
  s.Update(0.0, 10.0);  // One 10-second sample covering one half-life.
  EXPECT_NEAR(s.value(), 50.0, 1e-9);
}

TEST(SmootherTest, HalfLifeIndependentOfSampleGranularity) {
  // Many small steps over one half-life decay the old value the same as one
  // big step.
  ExponentialSmoother coarse, fine;
  coarse.set_half_life(10.0);
  fine.set_half_life(10.0);
  coarse.Update(100.0, 1.0);
  fine.Update(100.0, 1.0);
  coarse.Update(0.0, 10.0);
  for (int i = 0; i < 100; ++i) {
    fine.Update(0.0, 0.1);
  }
  EXPECT_NEAR(coarse.value(), fine.value(), 1e-9);
}

TEST(SmootherTest, ConvergesToConstantInput) {
  ExponentialSmoother s;
  s.set_half_life(5.0);
  s.Update(0.0, 1.0);
  for (int i = 0; i < 200; ++i) {
    s.Update(42.0, 1.0);
  }
  EXPECT_NEAR(s.value(), 42.0, 1e-6);
}

TEST(SmootherTest, ShorterHalfLifeIsMoreAgile) {
  ExponentialSmoother fast, slow;
  fast.set_half_life(1.0);
  slow.set_half_life(100.0);
  fast.Update(0.0, 1.0);
  slow.Update(0.0, 1.0);
  fast.Update(10.0, 1.0);
  slow.Update(10.0, 1.0);
  EXPECT_GT(fast.value(), slow.value());
}

TEST(SmootherTest, ResetClears) {
  ExponentialSmoother s;
  s.Update(5.0, 1.0);
  s.Reset();
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
  // Uninitialized again: the next sample is taken as is.
  s.Update(7.0, 1.0);
  EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(SmootherTest, ValueStaysBetweenSampleAndOld) {
  ExponentialSmoother s;
  s.set_half_life(3.0);
  s.Update(10.0, 1.0);
  s.Update(20.0, 1.0);
  EXPECT_GT(s.value(), 10.0);
  EXPECT_LT(s.value(), 20.0);
}

}  // namespace
}  // namespace odenergy
