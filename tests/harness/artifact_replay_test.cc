#include "src/harness/artifact_replay.h"

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/harness/artifact.h"
#include "src/harness/trial_runner.h"

namespace odharness {
namespace {

class ArtifactReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and process: ctest runs each case as its own
    // process, in parallel, and CachesParsedArtifactAcrossLookups deletes
    // the artifact the others read.
    dir_ = testing::TempDir() + "/replay_test_" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(getpid());
    std::string cmd = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    RunArtifact artifact;
    artifact.experiment = "fig06_video";
    TrialSet set;
    set.base_seed = 1000;
    for (double v : {470.0, 472.0, 468.0}) {
      TrialSample sample;
      sample.value = v;
      sample.breakdown["Idle"] = v / 4.0;
      sample.components["Disk"] = v / 10.0;
      set.trials.push_back(std::move(sample));
    }
    set.Summarize();
    artifact.AddSet("Video 1/Combined", std::move(set));
    artifact.AddNote("claim_ratio", 0.94);
    ASSERT_TRUE(artifact.WriteFile(dir_ + "/fig06_video.json"));
  }

  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }

  std::string dir_;
};

TEST_F(ArtifactReplayTest, DisabledWhenDirEmpty) {
  ArtifactReplay replay("");
  EXPECT_FALSE(replay.enabled());
  EXPECT_EQ(replay.Get("fig06_video"), nullptr);
  EXPECT_FALSE(replay.SetMean("fig06_video", "Video 1/Combined").has_value());
}

TEST_F(ArtifactReplayTest, SetMeanIsCrossTrialMean) {
  ArtifactReplay replay(dir_);
  EXPECT_TRUE(replay.enabled());
  auto mean = replay.SetMean("fig06_video", "Video 1/Combined");
  ASSERT_TRUE(mean.has_value());
  EXPECT_DOUBLE_EQ(*mean, 470.0);
}

TEST_F(ArtifactReplayTest, BreakdownComponentAndNoteLookups) {
  ArtifactReplay replay(dir_);
  auto idle = replay.BreakdownMean("fig06_video", "Video 1/Combined", "Idle");
  ASSERT_TRUE(idle.has_value());
  EXPECT_DOUBLE_EQ(*idle, 470.0 / 4.0);
  auto disk = replay.ComponentMean("fig06_video", "Video 1/Combined", "Disk");
  ASSERT_TRUE(disk.has_value());
  EXPECT_DOUBLE_EQ(*disk, 47.0);
  auto note = replay.Note("fig06_video", "claim_ratio");
  ASSERT_TRUE(note.has_value());
  EXPECT_DOUBLE_EQ(*note, 0.94);
}

TEST_F(ArtifactReplayTest, FaultPlanMismatchFallsBackToLive) {
  // An artifact recorded under a disturbance plan answers a different
  // question than a clean-run assertion: the guard must reject it.
  RunArtifact disturbed;
  disturbed.experiment = "fig20_goal_summary";
  disturbed.provenance.fault_plan = "outage@300+60";
  TrialSet set;
  set.base_seed = 2000;
  TrialSample sample;
  sample.value = 1200.0;
  set.trials.push_back(std::move(sample));
  set.Summarize();
  disturbed.AddSet("Goal 20 min", std::move(set));
  ASSERT_TRUE(disturbed.WriteFile(dir_ + "/fig20_goal_summary.json"));

  // Default expectation is a clean run ("") -> recorded plan mismatches.
  ArtifactReplay clean_replay(dir_);
  EXPECT_EQ(clean_replay.Get("fig20_goal_summary"), nullptr);
  EXPECT_FALSE(clean_replay.SetMean("fig20_goal_summary", "Goal 20 min")
                   .has_value());

  // The matching expectation replays it fine.
  ArtifactReplay matching(dir_, "outage@300+60");
  EXPECT_NE(matching.Get("fig20_goal_summary"), nullptr);
  auto mean = matching.SetMean("fig20_goal_summary", "Goal 20 min");
  ASSERT_TRUE(mean.has_value());
  EXPECT_DOUBLE_EQ(*mean, 1200.0);

  // And the guard cuts both ways: a clean artifact must not satisfy a
  // consumer expecting a disturbed run.
  EXPECT_EQ(matching.Get("fig06_video"), nullptr);
}

TEST_F(ArtifactReplayTest, AbsentPiecesReturnNullopt) {
  // Each miss — experiment, set, key, note — is the caller's signal to
  // fall back to live simulation, so none of them may throw.
  ArtifactReplay replay(dir_);
  EXPECT_EQ(replay.Get("no_such_experiment"), nullptr);
  EXPECT_FALSE(replay.SetMean("no_such_experiment", "x").has_value());
  EXPECT_FALSE(replay.SetMean("fig06_video", "No/Such Set").has_value());
  EXPECT_FALSE(replay.BreakdownMean("fig06_video", "Video 1/Combined", "nope")
                   .has_value());
  EXPECT_FALSE(replay.Note("fig06_video", "nope").has_value());
}

TEST_F(ArtifactReplayTest, MalformedArtifactReadsAsAbsent) {
  std::string path = dir_ + "/broken.json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("{\"schema_version\": 3, \"experiment\"", file);
  std::fclose(file);
  ArtifactReplay replay(dir_);
  EXPECT_EQ(replay.Get("broken"), nullptr);
  std::remove(path.c_str());
}

TEST_F(ArtifactReplayTest, CachesParsedArtifactAcrossLookups) {
  ArtifactReplay replay(dir_);
  const RunArtifact* first = replay.Get("fig06_video");
  ASSERT_NE(first, nullptr);
  // Delete the file: a second lookup must serve the cached parse.
  ASSERT_EQ(std::remove((dir_ + "/fig06_video.json").c_str()), 0);
  EXPECT_EQ(replay.Get("fig06_video"), first);
  ASSERT_TRUE(replay.SetMean("fig06_video", "Video 1/Combined").has_value());
}

}  // namespace
}  // namespace odharness
