#include "src/harness/artifact_diff.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/artifact.h"

namespace odharness {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TrialSet MakeSet(std::vector<double> values, uint64_t base_seed = 1000) {
  TrialSet set;
  set.base_seed = base_seed;
  for (double v : values) {
    TrialSample sample;
    sample.value = v;
    sample.breakdown["Idle"] = v / 4.0;
    set.trials.push_back(std::move(sample));
  }
  set.Summarize();
  return set;
}

RunArtifact MakeArtifact() {
  RunArtifact artifact;
  artifact.experiment = "fig06_video";
  artifact.AddSet("Video 1/Baseline", MakeSet({700.0, 702.0, 698.0}));
  artifact.AddSet("Video 1/Combined", MakeSet({470.0, 472.0, 468.0}));
  artifact.AddNote("claim_ratio", 0.94);
  return artifact;
}

TEST(WithinToleranceTest, ExactBoundaryIsWithin) {
  // The rule is |a-b| <= atol + rtol*max(|a|,|b|): equality counts.
  DiffOptions options;
  options.atol = 1.0;
  EXPECT_TRUE(WithinTolerance(10.0, 11.0, options));
  EXPECT_FALSE(WithinTolerance(10.0, 11.0 + 1e-9, options));

  DiffOptions relative;
  relative.rtol = 0.1;
  EXPECT_TRUE(WithinTolerance(100.0, 110.0, relative));  // 10 == 0.1 * 110.
  EXPECT_FALSE(WithinTolerance(100.0, 112.0, relative));
}

TEST(WithinToleranceTest, NonFiniteValues) {
  DiffOptions loose;
  loose.atol = 1e9;
  // Bit-identical non-finite values are "no change", any other non-finite
  // pairing is out of tolerance no matter how loose the tolerance.
  EXPECT_TRUE(WithinTolerance(kNan, kNan, loose));
  EXPECT_TRUE(WithinTolerance(kInf, kInf, loose));
  EXPECT_TRUE(WithinTolerance(-kInf, -kInf, loose));
  EXPECT_FALSE(WithinTolerance(kInf, -kInf, loose));
  EXPECT_FALSE(WithinTolerance(kNan, 1.0, loose));
  EXPECT_FALSE(WithinTolerance(kInf, 1.0, loose));
}

TEST(ArtifactDiffTest, IdenticalArtifacts) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.severity, ArtifactDiff::Severity::kIdentical);
  EXPECT_EQ(diff.ExitCode(), 0);
  EXPECT_TRUE(diff.changes.empty());
}

TEST(ArtifactDiffTest, EmptyArtifactsAreIdentical) {
  RunArtifact a, b;
  a.experiment = b.experiment = "empty";
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 0);
}

TEST(ArtifactDiffTest, SetWithNoTrialsComparesClean) {
  RunArtifact a, b;
  a.experiment = b.experiment = "x";
  a.AddSet("empty", MakeSet({}));
  b.AddSet("empty", MakeSet({}));
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 0);
}

TEST(ArtifactDiffTest, ReorderedSetsAndNotesAreNotAChange) {
  RunArtifact a = MakeArtifact();
  a.AddNote("second_note", 2.0);
  RunArtifact b;
  b.experiment = a.experiment;
  b.AddNote("second_note", 2.0);
  b.AddNote("claim_ratio", 0.94);
  b.AddSet("Video 1/Combined", MakeSet({470.0, 472.0, 468.0}));
  b.AddSet("Video 1/Baseline", MakeSet({700.0, 702.0, 698.0}));
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 0);
}

TEST(ArtifactDiffTest, DriftWithinToleranceExitsOne) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.sets[0].set.trials[1].value += 0.5;
  b.sets[0].set.Summarize();
  DiffOptions options;
  options.atol = 1.0;
  ArtifactDiff diff = DiffArtifacts(a, b, options);
  EXPECT_EQ(diff.severity, ArtifactDiff::Severity::kDrift);
  EXPECT_EQ(diff.ExitCode(), 1);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_TRUE(diff.changes[0].within);
  EXPECT_EQ(diff.changes[0].path, "sets[Video 1/Baseline].trials[1].value");
}

TEST(ArtifactDiffTest, OutOfToleranceExitsTwo) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.sets[1].set.trials[0].value += 50.0;
  b.sets[1].set.Summarize();
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 2);
  // The report names the offending set.
  ASSERT_FALSE(diff.changes.empty());
  EXPECT_NE(diff.changes[0].path.find("Video 1/Combined"), std::string::npos);
}

TEST(ArtifactDiffTest, WorstChangeDeterminesSeverity) {
  // One within-tolerance drift plus one regression: exit 2, not 1.
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.sets[0].set.trials[0].value += 0.5;   // within atol=1
  b.sets[1].set.trials[0].value += 50.0;  // far outside
  ArtifactDiff diff = DiffArtifacts(a, b, DiffOptions{0.0, 1.0});
  EXPECT_EQ(diff.ExitCode(), 2);
  EXPECT_EQ(diff.changes.size(), 2u);
}

TEST(ArtifactDiffTest, NanCellsCompareEqualToNan) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  a.sets[0].set.trials[2].value = kNan;
  b.sets[0].set.trials[2].value = kNan;
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 0);

  b.sets[0].set.trials[2].value = 1.0;
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 2);
}

TEST(ArtifactDiffTest, InfinityMismatchIsRegressionAtAnyTolerance) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  a.notes[0].second = kInf;
  b.notes[0].second = -kInf;
  DiffOptions loose;
  loose.atol = 1e12;
  EXPECT_EQ(DiffArtifacts(a, b, loose).ExitCode(), 2);
}

TEST(ArtifactDiffTest, OneSidedSetIsRegression) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.AddSet("Video 1/Extra", MakeSet({1.0}));
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 2);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, ArtifactDiff::Change::Kind::kAddedInB);
}

TEST(ArtifactDiffTest, OneSidedNoteIsRegression) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  a.AddNote("only_in_first", 3.0);
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 2);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, ArtifactDiff::Change::Kind::kRemovedInB);
  EXPECT_EQ(diff.changes[0].path, "notes[only_in_first]");
}

TEST(ArtifactDiffTest, OneSidedBreakdownKeyIsRegression) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.sets[0].set.trials[0].breakdown["Extra"] = 1.0;
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 2);
}

TEST(ArtifactDiffTest, SeedMismatchIsStructural) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.sets[0].set.base_seed = 9999;
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 2);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, ArtifactDiff::Change::Kind::kStructural);
  // Different seeds measure different populations: the per-trial values are
  // deliberately not compared on top of the structural report.
}

TEST(ArtifactDiffTest, TrialCountMismatchIsStructural) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.sets[0].set.trials.pop_back();
  b.sets[0].set.Summarize();
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 2);
  ASSERT_EQ(diff.changes.size(), 1u);
  EXPECT_EQ(diff.changes[0].kind, ArtifactDiff::Change::Kind::kStructural);
}

TEST(ArtifactDiffTest, ExperimentNameMismatchIsStructural) {
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  b.experiment = "fig08_speech";
  EXPECT_EQ(DiffArtifacts(a, b, {}).ExitCode(), 2);
}

TEST(ArtifactDiffTest, ProvenanceDifferencesNeverAffectExitCode) {
  // The guarantee committed goldens rely on: a fresh run from a later
  // commit, or with retuned calibration, still diffs clean when the
  // measured numbers match.
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  a.provenance.git_revision = "aaaa111";
  b.provenance.git_revision = "bbbb222";
  a.provenance.trials_override = 0;
  b.provenance.trials_override = 7;
  a.provenance.calibration = {{"video.chunk_seconds", 0.5}, {"old.key", 1.0}};
  b.provenance.calibration = {{"video.chunk_seconds", 0.25}, {"new.key", 2.0}};
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 0);
  EXPECT_TRUE(diff.changes.empty());
  // ...but every difference is surfaced as a hint: revision, override, the
  // changed constant, and both one-sided constants.
  EXPECT_EQ(diff.provenance_hints.size(), 5u);
}

TEST(ArtifactDiffTest, PerturbedCalibrationNamedInHintsNextToRegression) {
  // The acceptance scenario: a calibration constant changes, the dependent
  // measurements shift out of tolerance — the diff reports the shifted set
  // AND names the constant.
  RunArtifact a = MakeArtifact();
  RunArtifact b = MakeArtifact();
  a.provenance.calibration = {{"video.decode_joules_per_frame", 0.03}};
  b.provenance.calibration = {{"video.decode_joules_per_frame", 0.06}};
  for (TrialSample& trial : b.sets[0].set.trials) {
    trial.value *= 1.4;
  }
  b.sets[0].set.Summarize();
  ArtifactDiff diff = DiffArtifacts(a, b, {});
  EXPECT_EQ(diff.ExitCode(), 2);
  ASSERT_EQ(diff.provenance_hints.size(), 1u);
  EXPECT_NE(diff.provenance_hints[0].find("video.decode_joules_per_frame"),
            std::string::npos);
}

}  // namespace
}  // namespace odharness
