// Determinism of the real sweep-converted experiments: the artifact bytes
// of fig16_summary, fig18_zoned and fleet_small (Sweep users whose cells
// run concurrently under --jobs) must not depend on --jobs.  Links the
// full odbench_experiments object library, like odbench_registration_test.

#include <string>

#include <gtest/gtest.h>

#include "src/harness/registry.h"

namespace odharness {
namespace {

std::string ArtifactBytes(const std::string& name, int jobs) {
  const Experiment* experiment = ExperimentRegistry::Instance().Find(name);
  EXPECT_NE(experiment, nullptr) << name;
  if (experiment == nullptr) {
    return "";
  }
  RunOptions options;
  options.jobs = jobs;
  RunContext ctx(name, options);
  EXPECT_EQ(experiment->run(ctx), 0) << name;
  return ctx.artifact().ToJson().Dump(2);
}

TEST(OdbenchDeterminismTest, Fig16SummaryArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("fig16_summary", 1),
            ArtifactBytes("fig16_summary", 8));
}

TEST(OdbenchDeterminismTest, Fig18ZonedArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("fig18_zoned", 1), ArtifactBytes("fig18_zoned", 8));
}

// fleet_small's three cells run concurrently under --jobs 8: three
// RunFleetScenario calls at once, each logging from its own thread.
TEST(OdbenchDeterminismTest, FleetSmallArtifactIndependentOfJobs) {
  EXPECT_EQ(ArtifactBytes("fleet_small", 1), ArtifactBytes("fleet_small", 8));
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
