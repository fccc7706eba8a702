#include "src/util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

namespace odutil {
namespace {

TEST(RunningStatsTest, Empty) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(4.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 4.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats stats;
  for (double v : values) {
    stats.Add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance: sum sq dev = 32, n-1 = 7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.mean() * static_cast<double>(stats.count()), 40.0);
}

TEST(RunningStatsTest, NegativeValues) {
  RunningStats stats;
  stats.Add(-3.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), -3.0);
}

TEST(StudentTTest, KnownValues) {
  EXPECT_NEAR(StudentT90(1), 6.314, 1e-3);
  EXPECT_NEAR(StudentT90(4), 2.132, 1e-3);   // Five trials.
  EXPECT_NEAR(StudentT90(9), 1.833, 1e-3);   // Ten trials.
  EXPECT_NEAR(StudentT90(1000), 1.645, 1e-3);
  EXPECT_DOUBLE_EQ(StudentT90(0), 0.0);
}

TEST(SummarizeTest, FiveTrialConfidenceInterval) {
  // The paper reports means of five trials with 90% confidence intervals.
  std::vector<double> samples = {10.0, 11.0, 9.0, 10.5, 9.5};
  Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 10.0);
  EXPECT_NEAR(s.ci90_halfwidth, 2.132 * s.stddev / std::sqrt(5.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 9.0);
  EXPECT_DOUBLE_EQ(s.max, 11.0);
}

TEST(SummarizeTest, SingleSampleHasNoInterval) {
  Summary s = Summarize({5.0});
  EXPECT_DOUBLE_EQ(s.ci90_halfwidth, 0.0);
}

TEST(FitLineTest, ExactLine) {
  std::vector<double> x = {0.0, 5.0, 10.0, 20.0};
  std::vector<double> y;
  for (double xi : x) {
    y.push_back(3.0 + 5.6 * xi);
  }
  LinearFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 5.6, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitLineTest, NoisyLineHighRSquared) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  LinearFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(FitLineTest, FlatLine) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {7.0, 7.0, 7.0};
  LinearFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-12);
}

}  // namespace
}  // namespace odutil
