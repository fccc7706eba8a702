#include "src/sim/time.h"

#include <gtest/gtest.h>

namespace odsim {
namespace {

TEST(SimTimeTest, Constructors) {
  EXPECT_EQ(SimTime::Micros(1500000).micros(), 1500000);
  EXPECT_EQ(SimTime::Millis(1500).micros(), 1500000);
  EXPECT_EQ(SimTime::Seconds(1.5).micros(), 1500000);
  EXPECT_EQ(SimTime::Minutes(2).micros(), 120000000);
  EXPECT_EQ(SimTime::Zero().micros(), 0);
}

TEST(SimTimeTest, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(SimTime::Seconds(3.25).seconds(), 3.25);
  EXPECT_DOUBLE_EQ(SimTime::Micros(1).seconds(), 1e-6);
}

TEST(SimTimeTest, SecondsRoundsToNearestMicro) {
  EXPECT_EQ(SimTime::Seconds(0.0000014).micros(), 1);
  EXPECT_EQ(SimTime::Seconds(0.0000016).micros(), 2);
}

TEST(SimTimeTest, Comparisons) {
  EXPECT_LT(SimTime::Seconds(1), SimTime::Seconds(2));
  EXPECT_EQ(SimTime::Seconds(1), SimTime::Millis(1000));
  EXPECT_GE(SimTime::Seconds(2), SimTime::Seconds(2));
}

TEST(SimTimeTest, Arithmetic) {
  SimTime t = SimTime::Seconds(1) + SimTime::Seconds(2);
  EXPECT_EQ(t, SimTime::Seconds(3));
  t -= SimTime::Seconds(1);
  EXPECT_EQ(t, SimTime::Seconds(2));
  t = t + SimTime::Millis(500);
  EXPECT_EQ(t, SimTime::Seconds(2.5));
  EXPECT_EQ(SimTime::Seconds(3) - SimTime::Seconds(1), SimTime::Seconds(2));
}

TEST(SimTimeTest, ScalarMultiply) {
  EXPECT_EQ(SimTime::Seconds(10) * 0.5, SimTime::Seconds(5));
  EXPECT_EQ(SimTime::Seconds(1) * 2.0, SimTime::Seconds(2));
}

TEST(SimTimeTest, MaxIsLargerThanAnyPracticalTime) {
  EXPECT_GT(SimTime::Max(), SimTime::Seconds(1e12));
}

}  // namespace
}  // namespace odsim
