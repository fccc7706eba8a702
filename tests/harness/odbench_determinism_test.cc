// Determinism of the real sweep-converted experiments: the artifact bytes
// of fig16_summary and fig18_zoned (the former serial offenders, now the
// heaviest Sweep users) must not depend on --jobs.  Links the full
// odbench_experiments object library, like odbench_registration_test.

#include <string>

#include <gtest/gtest.h>

#include "src/harness/job_budget.h"
#include "src/harness/registry.h"

namespace odharness {
namespace {

std::string ArtifactBytes(const std::string& name, int jobs) {
  JobBudget::Global().Reset();
  const Experiment* experiment = ExperimentRegistry::Instance().Find(name);
  EXPECT_NE(experiment, nullptr) << name;
  if (experiment == nullptr) {
    return "";
  }
  RunOptions options;
  options.jobs = jobs;
  RunContext ctx(name, options);
  EXPECT_EQ(experiment->run(ctx), 0) << name;
  JobBudget::Global().Reset();
  return ctx.artifact().ToJson().Dump(2);
}

TEST(OdbenchDeterminismTest, Fig16SummaryArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("fig16_summary", 1),
            ArtifactBytes("fig16_summary", 8));
}

TEST(OdbenchDeterminismTest, Fig18ZonedArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("fig18_zoned", 1), ArtifactBytes("fig18_zoned", 8));
}

TEST(OdbenchDeterminismTest, AblateCpuScalingArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("ablate_cpu_scaling", 1),
            ArtifactBytes("ablate_cpu_scaling", 8));
}

// The simspeed artifact records only the deterministic facts of each cell
// (event count, simulated seconds, workload checksum), and no wall-clock
// quantity.  The artifact must therefore be byte-identical regardless of
// --jobs.
TEST(OdbenchDeterminismTest, SimspeedArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("simspeed", 1), ArtifactBytes("simspeed", 8));
}

}  // namespace
}  // namespace odharness
