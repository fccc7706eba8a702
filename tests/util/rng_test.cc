#include "src/util/rng.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace odutil {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.Uniform(-3.5, 9.25);
    EXPECT_GE(v, -3.5);
    EXPECT_LT(v, 9.25);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 10000; ++i) {
    int v = rng.UniformInt(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 100000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.Bernoulli(0.3)) {
      ++hits;
    }
  }
  double p = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(p, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerate) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  constexpr int kTrials = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / kTrials;
  double var = sum2 / kTrials - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

}  // namespace
}  // namespace odutil
