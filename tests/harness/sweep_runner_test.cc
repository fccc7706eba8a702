#include "src/harness/sweep_runner.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/job_budget.h"
#include "src/harness/registry.h"

namespace odharness {
namespace {

class SweepRunnerTest : public testing::Test {
 protected:
  void TearDown() override {
    JobBudget::Global().Configure(JobBudget::kUnlimited);
  }
};

// A deterministic stand-in measurement: nontrivial floating point so any
// summation-order bug between job counts would change the summary bytes.
TrialSample FakeMeasure(uint64_t seed) {
  TrialSample sample;
  sample.value = 100.0 + std::sin(static_cast<double>(seed)) * 7.3;
  sample.breakdown["part"] = std::sqrt(static_cast<double>(seed % 11) + 0.1);
  return sample;
}

// Builds the same heterogeneous sweep (plain cells, a hidden baseline, a
// nested trial set) under a given job count and returns the artifact bytes.
std::string ArtifactBytes(int jobs) {
  RunOptions options;
  options.jobs = jobs;
  RunContext ctx("sweep_test", options);
  Sweep sweep(ctx);
  size_t base = sweep.AddHidden([] { return FakeMeasure(1); });
  for (int i = 0; i < 6; ++i) {
    sweep.Add("cell_" + std::to_string(i), 100 + static_cast<uint64_t>(i),
              [i] { return FakeMeasure(100 + static_cast<uint64_t>(i)); });
  }
  sweep.AddTrials("trialset", 5, 500, FakeMeasure);
  sweep.Run();
  ctx.Note("baseline", sweep.Value(base));
  return ctx.artifact().ToJson().Dump(2);
}

TEST_F(SweepRunnerTest, ArtifactBytesIdenticalForAnyJobCount) {
  const std::string serial = ArtifactBytes(1);
  EXPECT_EQ(serial, ArtifactBytes(8));
  EXPECT_EQ(serial, ArtifactBytes(3));
}

TEST_F(SweepRunnerTest, RecordsInSubmissionOrderAcrossPhases) {
  RunOptions options;
  options.jobs = 4;
  RunContext ctx("sweep_test", options);
  Sweep sweep(ctx);
  size_t hidden = sweep.AddHidden([] { return FakeMeasure(9); });
  sweep.Add("first", 1, [] { return FakeMeasure(1); });
  sweep.Run();
  // A second phase may depend on the first (e.g. fig18's baselines).
  double baseline = sweep.Value(hidden);
  sweep.Add("second", 2, [baseline] {
    TrialSample s = FakeMeasure(2);
    s.value /= baseline;
    return s;
  });
  sweep.Run();

  const RunArtifact& artifact = ctx.artifact();
  ASSERT_EQ(artifact.sets.size(), 2u);  // Hidden cells are not recorded.
  EXPECT_EQ(artifact.sets[0].label, "first");
  EXPECT_EQ(artifact.sets[1].label, "second");
  EXPECT_DOUBLE_EQ(sweep.Value(1), artifact.sets[0].set.summary.mean);
}

TEST_F(SweepRunnerTest, AddTrialsHonorsContextOverrides) {
  RunOptions options;
  options.trials = 3;   // Overrides the default 7.
  options.seed = 4000;  // Overrides the default 900.
  RunContext ctx("sweep_test", options);
  Sweep sweep(ctx);
  size_t cell = sweep.AddTrials("set", 7, 900, FakeMeasure);
  sweep.Run();
  const TrialSet& set = sweep.Set(cell);
  EXPECT_EQ(set.base_seed, 4000u);
  ASSERT_EQ(set.trials.size(), 3u);
  EXPECT_DOUBLE_EQ(set.trials[0].value, FakeMeasure(4000).value);
  EXPECT_DOUBLE_EQ(set.trials[2].value, FakeMeasure(4002).value);
}

TEST_F(SweepRunnerTest, CellExceptionPropagatesAndRecordsNothing) {
  RunOptions options;
  options.jobs = 4;
  RunContext ctx("sweep_test", options);
  Sweep sweep(ctx);
  sweep.Add("ok", 1, [] { return FakeMeasure(1); });
  sweep.Add("boom", 2, []() -> TrialSample {
    throw std::runtime_error("cell failed");
  });
  EXPECT_THROW(sweep.Run(), std::runtime_error);
  // A failed phase records no partial results into the artifact.
  EXPECT_TRUE(ctx.artifact().sets.empty());
}

}  // namespace
}  // namespace odharness
