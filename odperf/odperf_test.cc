// Tests of the benchmark itself, at tiny unit sizes: determinism of the
// unit signatures, passivity of tracing, and that the seed argument reaches
// the inputs.
//
//   cmake --build .bench_build/odperf --target odperf_test
//   .bench_build/odperf/odperf_test

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "odperf/ref_kernel.h"
#include "odperf/trace.h"
#include "odperf/workloads.h"
#include "src/util/logging.h"

namespace odperf {
namespace {

// The contended and defended units log warnings by design.
const odutil::LogLevel kQuiet = odutil::SetLogLevel(odutil::LogLevel::kError);

constexpr UnitSize kTiny{.fleet_devices = 24,
                         .fleet_goal_seconds = 60.0,
                         .goal_seeds = 1,
                         .goal_scenarios = 2};

class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTest, SameSeedGivesSameSignature) {
  const UnitResult a = RunUnit(Prepare(GetParam(), 5, kTiny), 0);
  const UnitResult b = RunUnit(Prepare(GetParam(), 5, kTiny), 0);
  EXPECT_TRUE(a.ok) << a.failure;
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.Signature(), b.Signature());
}

TEST_P(WorkloadTest, TracingIsPassive) {
  const Plan plan = Prepare(GetParam(), 5, kTiny);
  const UnitResult plain = RunUnit(plan, 1);
  Tracer tracer;
  const UnitResult traced = RunUnit(plan, 1, &tracer);
  EXPECT_EQ(plain.Signature(), traced.Signature());
  EXPECT_EQ(plain.power_state_changes, 0.0);
  EXPECT_GT(traced.power_state_changes, 0.0);
  EXPECT_GT(tracer.Seconds(0), 0.0);
}

TEST_P(WorkloadTest, SeedArgumentIsHonoured) {
  const Plan one = Prepare(GetParam(), 1, kTiny);
  const Plan two = Prepare(GetParam(), 2, kTiny);
  EXPECT_NE(RunUnit(one, 0).Signature(), RunUnit(two, 0).Signature());
  EXPECT_NE(RunUnit(one, 0).Signature(), RunUnit(one, 1).Signature());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values(Workload::kFleetContended,
                                           Workload::kFleetCached,
                                           Workload::kGoalDefended),
                         [](const auto& info) {
                           return std::string(WorkloadName(info.param));
                         });

TEST(UnitSeedTest, DistinctAcrossUnitsAndSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Plan plan = Prepare(Workload::kFleetCached, seed, kTiny);
    for (int unit = 0; unit < 100; ++unit) {
      seeds.insert(UnitSeed(plan, unit));
    }
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(WorkloadNameTest, RoundTrips) {
  for (Workload w : {Workload::kFleetContended, Workload::kFleetCached,
                     Workload::kGoalDefended}) {
    Workload parsed;
    ASSERT_TRUE(ParseWorkload(WorkloadName(w), &parsed));
    EXPECT_EQ(parsed, w);
  }
  Workload unused;
  EXPECT_FALSE(ParseWorkload("suite", &unused));
}

TEST(RefKernelTest, JobChecksumsDependOnlyOnJobIndex) {
  RefKernel kernel;
  std::vector<uint64_t> first;
  for (int j = 0; j < RefKernel::kJobs; ++j) {
    first.push_back(kernel.RunJob());
  }
  EXPECT_EQ(std::set<uint64_t>(first.begin(), first.end()).size(),
            first.size());
  RefKernel other;
  for (int j = 0; j < RefKernel::kJobs; ++j) {
    EXPECT_EQ(kernel.RunJob(), first[static_cast<size_t>(j)]);
    EXPECT_EQ(other.RunJob(), first[static_cast<size_t>(j)]);
  }
}

TEST(RunUnitTest, ReferenceTicksAreSpreadThroughTheUnit) {
  for (Workload w : {Workload::kGoalDefended, Workload::kFleetCached}) {
    const Plan plan = Prepare(w, 3, kTiny);
    int ticks = 0;
    const UnitResult ticked =
        RunUnit(plan, 0, nullptr, Tracer::kNoParent, [&] { ++ticks; });
    EXPECT_EQ(ticks, ReferenceTicks(w, kTiny)) << WorkloadName(w);
    EXPECT_GT(ticks, 1);
    EXPECT_GT(ticked.host_seconds, 0.0);
    EXPECT_EQ(ticked.Signature(), RunUnit(plan, 0).Signature());
  }
}

}  // namespace
}  // namespace odperf
