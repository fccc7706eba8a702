#include "src/harness/artifact.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/trial_runner.h"
#include "tests/harness/json_edit.h"

namespace odharness {
namespace {

RunArtifact MakeArtifact() {
  RunArtifact artifact;
  artifact.experiment = "fig06_video";
  artifact.exit_code = 0;

  TrialRunner runner(1);
  TrialSet set = runner.Run(5, 1000, [](uint64_t seed) {
    TrialSample s;
    s.value = 400.0 + static_cast<double>(seed % 7) * 1.3;
    s.breakdown["Idle"] = 120.0 + static_cast<double>(seed % 3);
    s.breakdown["xanim"] = 250.0 - static_cast<double>(seed % 5);
    s.components["CPU"] = 88.0 + 0.5 * static_cast<double>(seed % 4);
    return s;
  });
  artifact.AddSet("Video 1/Combined", std::move(set));
  artifact.AddNote("background_watts", 5.65);
  artifact.AddNote("claim_ratio", 0.94);
  return artifact;
}

void ExpectEqual(const RunArtifact& a, const RunArtifact& b) {
  EXPECT_EQ(a.experiment, b.experiment);
  EXPECT_EQ(a.exit_code, b.exit_code);
  ASSERT_EQ(a.sets.size(), b.sets.size());
  for (size_t i = 0; i < a.sets.size(); ++i) {
    EXPECT_EQ(a.sets[i].label, b.sets[i].label);
    const TrialSet& x = a.sets[i].set;
    const TrialSet& y = b.sets[i].set;
    EXPECT_EQ(x.base_seed, y.base_seed);
    ASSERT_EQ(x.trials.size(), y.trials.size());
    for (size_t t = 0; t < x.trials.size(); ++t) {
      EXPECT_EQ(x.trials[t].value, y.trials[t].value);
      EXPECT_EQ(x.trials[t].breakdown, y.trials[t].breakdown);
      EXPECT_EQ(x.trials[t].components, y.trials[t].components);
    }
    // FromJson recomputes summaries from the trial samples; with exact
    // double round-tripping they must match bit for bit.
    EXPECT_EQ(x.summary.n, y.summary.n);
    EXPECT_EQ(x.summary.mean, y.summary.mean);
    EXPECT_EQ(x.summary.stddev, y.summary.stddev);
    EXPECT_EQ(x.summary.ci90_halfwidth, y.summary.ci90_halfwidth);
    ASSERT_EQ(x.breakdown_summaries.size(), y.breakdown_summaries.size());
    for (const auto& [key, summary] : x.breakdown_summaries) {
      ASSERT_TRUE(y.breakdown_summaries.count(key));
      EXPECT_EQ(summary.mean, y.breakdown_summaries.at(key).mean);
    }
  }
  ASSERT_EQ(a.notes.size(), b.notes.size());
  for (size_t i = 0; i < a.notes.size(); ++i) {
    EXPECT_EQ(a.notes[i], b.notes[i]);
  }
}

TEST(ArtifactTest, JsonRoundTrip) {
  RunArtifact artifact = MakeArtifact();
  auto restored = RunArtifact::FromJson(artifact.ToJson());
  ASSERT_TRUE(restored.has_value());
  ExpectEqual(artifact, *restored);
}

TEST(ArtifactTest, SerializedTextRoundTrip) {
  RunArtifact artifact = MakeArtifact();
  std::string text = artifact.ToJson().Dump(2);
  auto json = JsonValue::Parse(text);
  ASSERT_TRUE(json.has_value());
  auto restored = RunArtifact::FromJson(*json);
  ASSERT_TRUE(restored.has_value());
  ExpectEqual(artifact, *restored);
}

TEST(ArtifactTest, JsonCarriesSchemaFields) {
  JsonValue json = MakeArtifact().ToJson();
  EXPECT_DOUBLE_EQ(json.DoubleAt("schema_version"),
                   RunArtifact::kSchemaVersion);
  ASSERT_NE(json.Find("experiment"), nullptr);
  EXPECT_EQ(json.Find("experiment")->AsString(), "fig06_video");
  ASSERT_NE(json.Find("sets"), nullptr);
  ASSERT_EQ(json.Find("sets")->array().size(), 1u);
  const JsonValue& set = json.Find("sets")->array()[0];
  EXPECT_EQ(set.Find("label")->AsString(), "Video 1/Combined");
  ASSERT_NE(set.Find("summary"), nullptr);
  EXPECT_DOUBLE_EQ(set.Find("summary")->DoubleAt("n"), 5.0);
  ASSERT_NE(json.Find("notes"), nullptr);
  EXPECT_DOUBLE_EQ(json.Find("notes")->DoubleAt("background_watts"), 5.65);
}

TEST(ArtifactTest, JsonOmitsNondeterministicRunMetadata) {
  // The determinism contract: artifact bytes must not depend on --jobs or
  // wall clock, so neither may appear in the document.
  JsonValue json = MakeArtifact().ToJson();
  EXPECT_EQ(json.Find("jobs"), nullptr);
  EXPECT_EQ(json.Find("wall_ms"), nullptr);
}

TEST(ArtifactTest, ProvenanceRoundTrip) {
  RunArtifact artifact = MakeArtifact();
  artifact.provenance.git_revision = "abc1234";
  artifact.provenance.trials_override = 7;
  artifact.provenance.seed_override = 42;
  artifact.provenance.calibration = {{"video.chunk_seconds", 0.5},
                                     {"web.jpeg5_scale", 0.05}};
  auto restored = RunArtifact::FromJson(artifact.ToJson());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->provenance.git_revision, "abc1234");
  EXPECT_EQ(restored->provenance.trials_override, 7);
  EXPECT_EQ(restored->provenance.seed_override, 42u);
  EXPECT_EQ(restored->provenance.calibration, artifact.provenance.calibration);
}

TEST(ArtifactTest, VersionTwoDocumentReadsWithDefaultProvenance) {
  // v2 artifacts predate the provenance block; they must stay readable and
  // come back with the default-constructed provenance.
  JsonValue json = MakeArtifact().ToJson();
  json.Set("schema_version", 2);
  ASSERT_NE(json.Find("provenance"), nullptr);
  json = Without(json, "provenance");
  auto restored = RunArtifact::FromJson(json);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->provenance.git_revision, "unknown");
  EXPECT_EQ(restored->provenance.trials_override, 0);
  EXPECT_TRUE(restored->provenance.calibration.empty());
  EXPECT_EQ(restored->experiment, "fig06_video");
  ASSERT_EQ(restored->sets.size(), 1u);
}

TEST(ArtifactTest, FromJsonRejectsWrongShape) {
  EXPECT_FALSE(RunArtifact::FromJson(JsonValue(3.0)).has_value());
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("schema_version", 99);
  obj.Set("experiment", "x");
  EXPECT_FALSE(RunArtifact::FromJson(obj).has_value());
}

TEST(ArtifactTest, FromJsonRejectsUnsupportedVersions) {
  JsonValue json = MakeArtifact().ToJson();
  json.Set("schema_version", 1);  // Below kMinReadSchemaVersion.
  EXPECT_FALSE(RunArtifact::FromJson(json).has_value());
  json.Set("schema_version", RunArtifact::kSchemaVersion + 1);
  EXPECT_FALSE(RunArtifact::FromJson(json).has_value());
  json.Set("schema_version", "3");  // Must be a number, not a string.
  EXPECT_FALSE(RunArtifact::FromJson(json).has_value());
  json.Set("schema_version", RunArtifact::kSchemaVersion);
  EXPECT_TRUE(RunArtifact::FromJson(json).has_value());
}

TEST(ArtifactTest, FromJsonRejectsMissingExperiment) {
  JsonValue json = MakeArtifact().ToJson();
  EXPECT_FALSE(RunArtifact::FromJson(Without(json, "experiment")).has_value());
}

TEST(ArtifactTest, FromJsonRejectsMalformedSets) {
  const JsonValue good = MakeArtifact().ToJson();
  const JsonValue& sets = *good.Find("sets");
  const JsonValue& set = sets.array()[0];
  auto with_set = [&](const JsonValue& edited) {
    JsonValue json = good;
    json.Set("sets", Replaced(sets, 0, edited));
    return RunArtifact::FromJson(json);
  };
  EXPECT_FALSE(with_set(Without(set, "summary")).has_value());
  EXPECT_FALSE(with_set(Without(set, "label")).has_value());
  // A trial entry that is not an object.
  JsonValue bad_trial = set;
  bad_trial.Set("trials", Replaced(*set.Find("trials"), 0, JsonValue(1.0)));
  EXPECT_FALSE(with_set(bad_trial).has_value());
  EXPECT_TRUE(with_set(set).has_value());  // Control.
}

TEST(ArtifactTest, ReadFileRejectsTruncatedDocument) {
  // The torn-write scenario atomic replacement prevents; a byte-level
  // truncation must read back as nullopt, not garbage.
  RunArtifact artifact = MakeArtifact();
  std::string text = artifact.ToJson().Dump(2);
  std::string path = testing::TempDir() + "/truncated_artifact.json";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fwrite(text.data(), 1, text.size() / 2, file);
  std::fclose(file);
  EXPECT_FALSE(RunArtifact::ReadFile(path).has_value());
  std::remove(path.c_str());
}

TEST(ArtifactTest, FileRoundTrip) {
  RunArtifact artifact = MakeArtifact();
  std::string path = testing::TempDir() + "/artifact_test.json";
  ASSERT_TRUE(artifact.WriteFile(path));
  auto restored = RunArtifact::ReadFile(path);
  ASSERT_TRUE(restored.has_value());
  ExpectEqual(artifact, *restored);
  std::remove(path.c_str());
}

TEST(ArtifactTest, ReadFileMissingPath) {
  EXPECT_FALSE(RunArtifact::ReadFile("/nonexistent/dir/nope.json").has_value());
}

TEST(ArtifactTest, CompactFileRoundTripsAndIsSingleLine) {
  RunArtifact artifact = MakeArtifact();
  const std::string pretty = testing::TempDir() + "/artifact_pretty.json";
  const std::string compact = testing::TempDir() + "/artifact_compact.json";
  ASSERT_TRUE(artifact.WriteFile(pretty));
  ASSERT_TRUE(artifact.WriteFile(compact, /*compact=*/true));

  // Same document, different spelling: the compact file has no newlines
  // and is strictly smaller.
  std::ifstream in(compact, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_LT(std::filesystem::file_size(compact),
            std::filesystem::file_size(pretty));

  auto restored = RunArtifact::ReadFile(compact);
  ASSERT_TRUE(restored.has_value());
  ExpectEqual(artifact, *restored);
  std::remove(pretty.c_str());
  std::remove(compact.c_str());
}

TEST(ArtifactTest, FaultPlanRoundTripsAndIsOmittedWhenEmpty) {
  RunArtifact clean = MakeArtifact();
  // A clean run's JSON must be byte-identical to the pre-fault schema: the
  // key only appears when a plan actually disturbed the run.
  EXPECT_EQ(clean.ToJson().Find("provenance")->Find("fault_plan"), nullptr);

  RunArtifact faulted = MakeArtifact();
  faulted.provenance.fault_plan = "outage@30+20;loss@60+10=0.3";
  auto restored = RunArtifact::FromJson(faulted.ToJson());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->provenance.fault_plan, faulted.provenance.fault_plan);
}

}  // namespace
}  // namespace odharness
