#include "src/trace/trace_artifact.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/harness/json.h"
#include "src/harness/registry.h"
#include "tests/harness/json_edit.h"

namespace odtrace {
namespace {

PowerTrace MakeTrace() {
  PowerTrace trace;
  trace.start_us = 15000000;
  trace.end_us = 25000000;
  trace.components.push_back(ComponentTrace{
      "CPU",
      {{15000000, 0.0}, {15001812, 6.0}, {20000000, 0.0}}});
  trace.components.push_back(ComponentTrace{"Display", {{15000000, 3.0}}});
  return trace;
}

TraceArtifact MakeArtifact() {
  TraceArtifact artifact;
  artifact.experiment = "fig06_video";
  artifact.provenance.git_revision = "deadbeef";
  artifact.provenance.calibration = {{"k_display", 3.0}};
  artifact.Add("Video 1/Baseline", 1000, MakeTrace());
  return artifact;
}

TEST(TraceArtifactTest, JsonRoundTripPreservesEverything) {
  TraceArtifact artifact = MakeArtifact();
  auto restored = TraceArtifact::FromJson(artifact.ToJson());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->experiment, "fig06_video");
  EXPECT_EQ(restored->provenance.git_revision, "deadbeef");
  ASSERT_EQ(restored->traces.size(), 1u);
  EXPECT_EQ(restored->traces[0].label, "Video 1/Baseline");
  EXPECT_EQ(restored->traces[0].seed, 1000u);
  EXPECT_EQ(restored->traces[0].trace, MakeTrace());
}

TEST(TraceArtifactTest, SegmentsAreDeltaEncoded) {
  JsonValue json = MakeArtifact().ToJson();
  const JsonValue& cpu =
      json.Find("traces")->array()[0].Find("components")->array()[0];
  const JsonValue::Array& segments = cpu.Find("segments")->array();
  ASSERT_EQ(segments.size(), 3u);
  // [dt_us, watts]: dt is relative to the previous segment's open (the
  // trace start for the first, so the leading delta is always 0).
  EXPECT_EQ(segments[0].array()[0].AsDouble(), 0.0);
  EXPECT_EQ(segments[1].array()[0].AsDouble(), 1812.0);
  EXPECT_EQ(segments[2].array()[0].AsDouble(), 4998188.0);
  EXPECT_EQ(segments[1].array()[1].AsDouble(), 6.0);
}

TEST(TraceArtifactTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "odtrace_artifact_test.json")
          .string();
  TraceArtifact artifact = MakeArtifact();
  // Written as the run scheduler writes every trace artifact.
  ASSERT_TRUE(odharness::WriteJsonFile(path, artifact.ToJson(), /*compact=*/true));
  auto restored = TraceArtifact::ReadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->traces.size(), 1u);
  EXPECT_EQ(restored->traces[0].trace, MakeTrace());
}

TEST(TraceArtifactTest, ReadFileReportsMissingFileAsNullopt) {
  EXPECT_FALSE(TraceArtifact::ReadFile("/nonexistent/trace.json").has_value());
}

TEST(TraceArtifactTest, RejectsForeignDocuments) {
  JsonValue good = MakeArtifact().ToJson();

  JsonValue wrong_kind = good;
  wrong_kind.Set("kind", "run_artifact");
  EXPECT_FALSE(TraceArtifact::FromJson(wrong_kind).has_value());

  JsonValue wrong_version = good;
  wrong_version.Set("schema_version", 2);
  EXPECT_FALSE(TraceArtifact::FromJson(wrong_version).has_value());

  EXPECT_FALSE(TraceArtifact::FromJson(odharness::Without(good, "experiment"))
                   .has_value());
  EXPECT_FALSE(
      TraceArtifact::FromJson(odharness::Without(good, "traces")).has_value());

  EXPECT_FALSE(TraceArtifact::FromJson(JsonValue("not an object")).has_value());
}

TEST(TraceArtifactTest, RejectsMalformedSegmentDeltas) {
  auto with_delta = [](const JsonValue& delta) {
    using odharness::Replaced;
    JsonValue json = MakeArtifact().ToJson();
    JsonValue trace = json.Find("traces")->array()[0];
    JsonValue component = trace.Find("components")->array()[0];
    const JsonValue& segments = *component.Find("segments");
    component.Set("segments", Replaced(segments, 1,
                                       Replaced(segments.array()[1], 0, delta)));
    trace.Set("components", Replaced(*trace.Find("components"), 0, component));
    json.Set("traces", Replaced(*json.Find("traces"), 0, trace));
    return TraceArtifact::FromJson(json);
  };
  EXPECT_FALSE(with_delta(JsonValue(-5.0)).has_value());   // Time reversal.
  EXPECT_FALSE(with_delta(JsonValue(10.5)).has_value());   // Sub-microsecond.
  EXPECT_FALSE(with_delta(JsonValue("soon")).has_value()); // Non-numeric.
  EXPECT_TRUE(with_delta(JsonValue(1812.0)).has_value());  // Control.
}

TEST(TraceArtifactTest, AttachStampsContextNameAndProvenance) {
  odharness::RunOptions options;
  options.trace = true;
  odharness::RunContext ctx("fig06_video", options);

  TraceArtifact artifact;
  artifact.experiment = "ignored";  // Attach overwrites with ctx.name().
  artifact.Add("Video 1/Baseline", 1000, MakeTrace());
  AttachTraceArtifact(ctx, std::move(artifact));

  ASSERT_EQ(ctx.aux_documents().size(), 1u);
  EXPECT_EQ(ctx.aux_documents()[0].first, "fig06_video.trace.json");
  auto restored = TraceArtifact::FromJson(ctx.aux_documents()[0].second);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->experiment, "fig06_video");
  EXPECT_EQ(restored->provenance.git_revision,
            ctx.artifact().provenance.git_revision);
}

TEST(TraceArtifactTest, RepeatedAuxFilenameReplacesTheDocument) {
  odharness::RunOptions options;
  odharness::RunContext ctx("fig06_video", options);
  TraceArtifact first = MakeArtifact();
  AttachTraceArtifact(ctx, first);
  TraceArtifact second = MakeArtifact();
  second.traces[0].seed = 2000;
  AttachTraceArtifact(ctx, second);
  ASSERT_EQ(ctx.aux_documents().size(), 1u);
  auto restored = TraceArtifact::FromJson(ctx.aux_documents()[0].second);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->traces[0].seed, 2000u);
}

}  // namespace
}  // namespace odtrace
