#include "src/harness/scheduler.h"

#ifndef _WIN32
#include <unistd.h>
#endif

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

#ifndef _WIN32
// Sleeps far past any timeout the watchdog tests configure; only ever runs
// forked, where SIGKILL cuts the sleep short.
int RunSleeper(RunContext&) {
  ::usleep(30'000'000);
  return 0;
}
const Experiment kSleeper{"sleeper", "sleeps until killed", &RunSleeper};
#endif

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class SchedulerTest : public testing::Test {
 protected:
  void TearDown() override { JobBudget::Global().Reset(); }
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

  JobBudget::Global().Reset();
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

#ifndef _WIN32
TEST_F(SchedulerTest, WatchdogKillsOverdueChildAsExitCode124) {
  const std::string out_dir = testing::TempDir() + "/sched_watchdog";
  std::filesystem::remove_all(out_dir);
  std::filesystem::create_directories(out_dir);

  RunOptions options;
  options.jobs = 2;  // Forked mode; the watchdog only applies there.
  options.out_dir = out_dir;
  options.experiment_timeout_seconds = 0.2;
  const std::vector<const Experiment*> suite = {&kAlpha, &kSleeper};
  EXPECT_EQ(RunExperiments(suite, options), 124);

  // The well-behaved experiment still ran to completion and wrote its
  // artifact; the killed one never got that far.
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/alpha.json"));
  EXPECT_FALSE(std::filesystem::exists(out_dir + "/sleeper.json"));
  std::filesystem::remove_all(out_dir);
}

TEST_F(SchedulerTest, GenerousTimeoutKillsNothing) {
  RunOptions options;
  options.jobs = 2;
  options.experiment_timeout_seconds = 60.0;
  const std::vector<const Experiment*> suite = {&kAlpha, &kGamma};
  EXPECT_EQ(RunExperiments(suite, options), 0);
}

TEST_F(SchedulerTest, SuiteSurvivesAndContinuesPastAKill) {
  // Experiments queued behind the killed one must still run: the reclaimed
  // jobserver tokens keep the pool usable.
  RunOptions options;
  options.jobs = 2;
  options.experiment_timeout_seconds = 0.2;
  const std::vector<const Experiment*> suite = {&kSleeper, &kAlpha, &kBeta,
                                                &kGamma};
  // Worst rc across the suite: the kill (124) dominates beta's 3.
  EXPECT_EQ(RunExperiments(suite, options), 124);
}
#endif

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
