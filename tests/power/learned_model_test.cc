// Self-constructive power model: RLS core (src/power/learned_model) and the
// utilization features that feed it (src/power/utilization).  Synthetic
// regressions pin the estimator's numerics — recovery of a known linear
// model, coefficient clamping, degenerate-input rejection, covariance
// guarding — and a small two-component machine pins the probe's occupancy
// accounting against hand-computed residencies.

#include "src/power/learned_model.h"

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/power/machine.h"
#include "src/power/utilization.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odpower {
namespace {

// y = 6 + 2*x1 - 0.5*x2, exercised with occupancy-like features in [0, 1].
std::vector<double> Phi(double x1, double x2) { return {1.0, x1, x2}; }
double Truth(double x1, double x2) { return 6.0 + 2.0 * x1 - 0.5 * x2; }

TEST(LearnedModelTest, RecoversALinearModelFromNoisyObservations) {
  LearnedModel model(3);
  odutil::Rng rng(7);
  for (int i = 0; i < 600; ++i) {
    double x1 = rng.Uniform(0.0, 1.0);
    double x2 = rng.Uniform(0.0, 1.0);
    double noise = rng.Uniform(-0.02, 0.02);
    model.Observe(Phi(x1, x2), Truth(x1, x2) + noise);
  }
  EXPECT_NEAR(model.coefficient(0), 6.0, 0.05);
  EXPECT_NEAR(model.coefficient(1), 2.0, 0.05);
  EXPECT_NEAR(model.coefficient(2), -0.5, 0.05);
  EXPECT_TRUE(model.converged());
  EXPECT_GT(model.confidence(), 0.9);
  EXPECT_LT(model.prediction_error_fraction(), 0.01);
  // Out-of-sample prediction lands on the plane.
  EXPECT_NEAR(model.PredictWatts(Phi(0.3, 0.9)), Truth(0.3, 0.9), 0.1);
}

TEST(LearnedModelTest, TracksADriftingTargetThroughForgetting) {
  LearnedModel model(3);
  odutil::Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    double x1 = rng.Uniform(0.0, 1.0);
    model.Observe(Phi(x1, 0.0), 6.0 + 2.0 * x1);
  }
  ASSERT_NEAR(model.coefficient(1), 2.0, 0.05);
  // The component's real draw changes; with forgetting the fit follows
  // within a few memory lengths (0.999 per sample: ~1000 samples).
  for (int i = 0; i < 5000; ++i) {
    double x1 = rng.Uniform(0.0, 1.0);
    model.Observe(Phi(x1, 0.0), 6.0 + 3.5 * x1);
  }
  EXPECT_NEAR(model.coefficient(1), 3.5, 0.1);
}

TEST(LearnedModelTest, CoefficientsClampToPhysicalBounds) {
  // The fit is clamped to [-5 W, 25 W].
  LearnedModel model(2);
  // An (erroneous) 500 W target: no component of this machine draws that,
  // so the fit must saturate at the bound instead of following.
  for (int i = 0; i < 200; ++i) {
    model.Observe(std::array{1.0, 1.0}, 500.0);
  }
  EXPECT_LE(model.coefficient(0), 25.0);
  EXPECT_LE(model.coefficient(1), 25.0);
  for (int i = 0; i < 200; ++i) {
    model.Observe(std::array{1.0, 1.0}, -500.0);
  }
  EXPECT_GE(model.coefficient(0), -5.0);
  EXPECT_GE(model.coefficient(1), -5.0);
}

TEST(LearnedModelTest, NonFiniteInputsAreSkippedNotFolded) {
  LearnedModel model(2);
  model.Observe(std::array{1.0, 0.5}, 8.0);
  int samples = model.samples();
  model.Observe(std::array{1.0, 0.5}, std::nan(""));
  model.Observe(std::array{1.0, std::nan("")}, 8.0);
  model.Observe(std::array{1.0, 0.5}, std::numeric_limits<double>::infinity());
  EXPECT_EQ(model.samples(), samples);
  EXPECT_EQ(model.skipped_updates(), 3);
}

TEST(LearnedModelTest, PredictionIsClampedNonNegative) {
  LearnedModel model(2);
  for (int i = 0; i < 100; ++i) {
    model.Observe(std::array{1.0, 1.0}, 0.1);
    model.Observe(std::array{1.0, 0.0}, 2.0);
  }
  // Extrapolating past the data could go negative; a power model must not.
  EXPECT_GE(model.PredictWatts(std::array{1.0, 2.0}), 0.0);
}

TEST(LearnedModelTest, CovarianceGuardCatchesUnexcitedFeatures) {
  LearnedModel model(3);
  // Feature 2 is never excited: under forgetting its prior variance
  // inflates by 1/lambda per update, unbounded, until the guard caps it.
  odutil::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    model.Observe(Phi(rng.Uniform(0.0, 1.0), 0.0), 6.0);
  }
  EXPECT_GT(model.guarded_updates(), 0);
  EXPECT_LE(model.condition_proxy(), 1e7 * 1.01);  // The guard's 1e7 bound.
}

TEST(LearnedModelTest, ConfidenceRampsWithSamplesAndQuality) {
  LearnedModel model(2);
  EXPECT_FALSE(model.converged());
  EXPECT_EQ(model.confidence(), 0.0);
  for (int i = 0; i < 30; ++i) {
    model.Observe(std::array{1.0, 0.5}, 7.0);
  }
  double early = model.confidence();
  EXPECT_GT(early, 0.0);
  EXPECT_FALSE(model.converged());  // Below convergence_samples.
  for (int i = 0; i < 200; ++i) {
    model.Observe(std::array{1.0, 0.5}, 7.0);
  }
  EXPECT_GT(model.confidence(), early);
  EXPECT_TRUE(model.converged());
}

TEST(UtilizationProbeTest, OccupanciesMatchHandComputedResidency) {
  odsim::Simulator sim;
  Machine machine(&sim, 0.0);
  Component* a = machine.AddComponent(
      std::make_unique<Component>("a", std::vector<double>{1.0, 2.0}, 0));
  Component* b = machine.AddComponent(std::make_unique<Component>(
      "b", std::vector<double>{0.5, 1.0, 3.0}, 1));

  UtilizationProbe probe(&machine, sim.Now());
  // dim = 1 intercept + (2-1) + (3-1) non-baseline states.
  ASSERT_EQ(probe.dim(), 4);
  EXPECT_EQ(probe.FeatureName(0), "bias");

  sim.Schedule(odsim::SimDuration::Seconds(2), [&] { a->SetState(1); });
  sim.Schedule(odsim::SimDuration::Seconds(6), [&] { a->SetState(0); });
  sim.Schedule(odsim::SimDuration::Seconds(8), [&] { b->SetState(2); });
  sim.RunUntil(odsim::SimTime::Seconds(10));

  std::vector<double> phi(static_cast<size_t>(probe.dim()));
  double window = probe.DrainWindow(sim.Now(), phi);
  EXPECT_DOUBLE_EQ(window, 10.0);
  ASSERT_EQ(phi.size(), 4u);
  EXPECT_DOUBLE_EQ(phi[0], 1.0);
  // a spent [2 s, 6 s) in state 1 -> 0.4 of the window; b spent [8 s, 10 s)
  // in state 2 -> 0.2.  b's state 0 was never entered.
  double occupancy_a1 = 0.0;
  double occupancy_b0 = 0.0;
  double occupancy_b2 = 0.0;
  for (int i = 1; i < probe.dim(); ++i) {
    if (probe.FeatureName(i) == "a[1]") occupancy_a1 = phi[static_cast<size_t>(i)];
    if (probe.FeatureName(i) == "b[0]") occupancy_b0 = phi[static_cast<size_t>(i)];
    if (probe.FeatureName(i) == "b[2]") occupancy_b2 = phi[static_cast<size_t>(i)];
  }
  EXPECT_NEAR(occupancy_a1, 0.4, 1e-12);
  EXPECT_NEAR(occupancy_b0, 0.0, 1e-12);
  EXPECT_NEAR(occupancy_b2, 0.2, 1e-12);

  // The drain reset the window: an immediate re-drain is empty.
  EXPECT_DOUBLE_EQ(probe.DrainWindow(sim.Now(), phi), 0.0);

  // Truth access (evaluation only): increments over each component's
  // baseline state, and the resting intercept.
  for (int i = 1; i < probe.dim(); ++i) {
    if (probe.FeatureName(i) == "a[1]") {
      EXPECT_DOUBLE_EQ(probe.TrueIncrementWatts(i), 1.0);  // 2.0 - 1.0
    }
    if (probe.FeatureName(i) == "b[2]") {
      EXPECT_DOUBLE_EQ(probe.TrueIncrementWatts(i), 2.0);  // 3.0 - 1.0
    }
  }
  EXPECT_DOUBLE_EQ(probe.TrueInterceptWatts(), 2.0);  // a@1.0 + b@1.0.

  // Cumulative excitation survives drains.
  for (int i = 1; i < probe.dim(); ++i) {
    if (probe.FeatureName(i) == "a[1]") {
      EXPECT_NEAR(probe.FeatureSeconds(i), 4.0, 1e-12);
    }
  }
  EXPECT_NEAR(probe.FeatureSeconds(0), 10.0, 1e-12);
}

TEST(UtilizationProbeTest, FeatureStreamCarriesNoCalibratedWattage) {
  // The identifiability contract: occupancies within a window plus the
  // intercept sum to at most 1 per component, and a fully resting machine
  // yields the bare intercept — the features are dimensionless activity,
  // never watts.
  odsim::Simulator sim;
  Machine machine(&sim, 0.0);
  machine.AddComponent(
      std::make_unique<Component>("c", std::vector<double>{4.0, 9.0}, 0));
  UtilizationProbe probe(&machine, sim.Now());
  sim.RunUntil(odsim::SimTime::Seconds(5));
  ASSERT_EQ(probe.dim(), 2);
  std::vector<double> phi(2);
  probe.DrainWindow(sim.Now(), phi);
  EXPECT_DOUBLE_EQ(phi[0], 1.0);
  EXPECT_DOUBLE_EQ(phi[1], 0.0);  // Resting: no trace of the 4 W draw.
}

}  // namespace
}  // namespace odpower
