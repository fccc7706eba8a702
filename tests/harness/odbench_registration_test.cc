// Links the odbench_experiments object library, so the registry here holds
// exactly the experiments the odbench binary ships: the ones in kExpected.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/registry.h"

namespace odharness {
namespace {

const char* const kExpected[] = {
    "ablate_cpu_scaling", "ablate_hysteresis", "ablate_monitoring",
    "ablate_priority",    "calibrate",         "fault_sweep",
    "fig02_profile",      "fig04_power_table", "fig06_video",
    "fig08_speech",       "fig10_map",         "fig11_map_think",
    "fig13_web",          "fig14_web_think",   "fig15_concurrency",
    "fig16_summary",      "fig18_zoned",       "fig19_goal_timeline",
    "fig20_goal_summary", "fig21_halflife",    "fig22_longrun",
    "fleet_small",        "fleet_sweep",       "gauge_drift_sweep",
    "goal_fault_sweep",   "learned_model_sweep", "lifetime",
    "scenario_sweep",     "simspeed",
};

TEST(OdbenchRegistrationTest, ExactlyTheExpectedExperimentsRegistered) {
  auto& registry = ExperimentRegistry::Instance();
  EXPECT_EQ(registry.size(), std::size(kExpected));
  for (const char* name : kExpected) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
}

TEST(OdbenchRegistrationTest, EveryExperimentHasDescription) {
  for (const Experiment* experiment :
       ExperimentRegistry::Instance().List()) {
    EXPECT_FALSE(experiment->description.empty()) << experiment->name;
    EXPECT_NE(experiment->run, nullptr) << experiment->name;
  }
}

TEST(OdbenchRegistrationTest, PrefixResolution) {
  auto& registry = ExperimentRegistry::Instance();
  const Experiment* fig04 = registry.Resolve("fig04");
  ASSERT_NE(fig04, nullptr);
  EXPECT_EQ(fig04->name, "fig04_power_table");

  // "fig1" matches several figures; Resolve must refuse and list them.
  std::vector<std::string> matches;
  EXPECT_EQ(registry.Resolve("fig1", &matches), nullptr);
  EXPECT_GT(matches.size(), 1u);
}

TEST(OdbenchRegistrationTest, RunsFig04EndToEnd) {
  const Experiment* fig04 =
      ExperimentRegistry::Instance().Find("fig04_power_table");
  ASSERT_NE(fig04, nullptr);
  RunOptions options;
  options.trials = 1;
  RunContext ctx("fig04_power_table", options);
  EXPECT_EQ(fig04->run(ctx), 0);
}

TEST(OdbenchRegistrationTest, Fig06ParallelTrialsMatchSerial) {
  const Experiment* fig06 = ExperimentRegistry::Instance().Find("fig06_video");
  ASSERT_NE(fig06, nullptr);

  RunOptions serial;
  serial.trials = 2;
  RunContext serial_ctx("fig06_video", serial);
  ASSERT_EQ(fig06->run(serial_ctx), 0);

  RunOptions threaded;
  threaded.trials = 2;
  threaded.jobs = 4;
  RunContext threaded_ctx("fig06_video", threaded);
  ASSERT_EQ(fig06->run(threaded_ctx), 0);

  const RunArtifact& a = serial_ctx.artifact();
  const RunArtifact& b = threaded_ctx.artifact();
  ASSERT_EQ(a.sets.size(), b.sets.size());
  for (size_t i = 0; i < a.sets.size(); ++i) {
    EXPECT_EQ(a.sets[i].label, b.sets[i].label);
    EXPECT_EQ(a.sets[i].set.summary.mean, b.sets[i].set.summary.mean)
        << a.sets[i].label;
  }
}

}  // namespace
}  // namespace odharness
