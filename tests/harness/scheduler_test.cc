#include "src/harness/scheduler.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/job_budget.h"

namespace odharness {
namespace {

// Tiny stand-in experiments: deterministic artifacts, one nonzero rc.
int RunAlpha(RunContext& ctx) {
  std::printf("alpha output line\n");
  ctx.Record("alpha/cell", 11, TrialSample{2.5, {{"part", 1.25}}});
  ctx.Note("alpha_note", 0.5);
  return 0;
}

int RunBeta(RunContext& ctx) {
  ctx.Record("beta/cell", 22, TrialSample{7.5});
  return 3;  // Experiment-level failure; must dominate the suite rc.
}

int RunGamma(RunContext& ctx) {
  ctx.RunTrials("gamma/set", 4, 300, [](uint64_t seed) {
    return TrialSample{static_cast<double>(seed) * 1.5};
  });
  return 0;
}

const Experiment kAlpha{"alpha", "alpha experiment", &RunAlpha};
const Experiment kBeta{"beta", "beta experiment", &RunBeta};
const Experiment kGamma{"gamma", "gamma experiment", &RunGamma};

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class SchedulerTest : public testing::Test {
 protected:
  void TearDown() override {
    JobBudget::Global().Configure(JobBudget::kUnlimited);
  }
};

TEST_F(SchedulerTest, ParallelSuiteMatchesSerialArtifactsAndWorstRc) {
  const std::string serial_dir = testing::TempDir() + "/sched_serial";
  const std::string parallel_dir = testing::TempDir() + "/sched_parallel";
  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(parallel_dir);
  std::filesystem::create_directories(serial_dir);
  std::filesystem::create_directories(parallel_dir);

  const std::vector<const Experiment*> suite = {&kAlpha, &kBeta, &kGamma};

  RunOptions serial;
  serial.jobs = 1;
  serial.out_dir = serial_dir;
  EXPECT_EQ(RunExperiments(suite, serial), 3);

  RunOptions parallel;
  parallel.jobs = 4;
  parallel.out_dir = parallel_dir;
  EXPECT_EQ(RunExperiments(suite, parallel), 3);

  for (const char* name : {"alpha", "beta", "gamma"}) {
    const std::string a = Slurp(serial_dir + "/" + name + ".json");
    const std::string b = Slurp(parallel_dir + "/" + name + ".json");
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name;  // The determinism contract, byte for byte.
  }

  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(parallel_dir);
}

TEST_F(SchedulerTest, RunWithoutOutDirWritesNoArtifacts) {
  RunOptions options;  // out_dir empty: console-only run.
  EXPECT_EQ(RunExperiment(kAlpha, options), 0);
  EXPECT_EQ(RunExperiment(kBeta, options), 3);
}

TEST_F(SchedulerTest, ArtifactWriteFailureIsANonzeroExit) {
  // Block the artifact directory with a regular file so WriteFile fails.
  const std::string blocker = testing::TempDir() + "/sched_blocker";
  std::filesystem::remove_all(blocker);
  { std::ofstream touch(blocker); }

  RunOptions options;
  options.out_dir = blocker + "/nested";
  EXPECT_EQ(RunExperiment(kAlpha, options), 74);  // EX_IOERR.
  // The write failure must also dominate a whole-suite run.
  const std::vector<const Experiment*> suite = {&kAlpha, &kGamma};
  EXPECT_EQ(RunExperiments(suite, options), 74);

  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace odharness
