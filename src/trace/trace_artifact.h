// Trace artifacts: power timelines as CI-diffable JSON documents.
//
// `odbench run <experiment> --trace` writes one trace document next to the
// scalar artifact (`<experiment>.trace.json`) holding the per-component
// power timelines of that experiment's signature scenarios.  The document
// carries the same schema-v3 provenance block as the scalar artifact (git
// revision, seed policy, fault plan, calibration constants) and, like it,
// contains measured content only — byte-identical for any --jobs value.
//
// Segments are delta-encoded to keep committed goldens compact: each
// segment is a `[dt_us, watts]` pair where dt_us is the integer
// microseconds since the previous segment opened (since the trace start
// for the first).  Run-length encoding is inherited from the recorder —
// a segment exists only where the draw changed.
//
// Schema:
//   {
//     "schema_version": 3,
//     "kind": "power_trace",
//     "experiment": "fig06_video",
//     "provenance": { ...same block as the scalar artifact... },
//     "traces": [
//       {"label": "Video 1/Baseline", "seed": 1000,
//        "start_us": 15000000, "duration_us": 231500000,
//        "components": [
//          {"name": "CPU", "segments": [[0, 0.0], [1812, 6.0], ...]},
//          ...
//        ]}
//     ]
//   }

#ifndef SRC_TRACE_TRACE_ARTIFACT_H_
#define SRC_TRACE_TRACE_ARTIFACT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/harness/artifact.h"
#include "src/harness/json.h"
#include "src/trace/power_trace.h"

namespace odharness {
class RunContext;
}  // namespace odharness

namespace odtrace {

using JsonValue = odharness::JsonValue;

struct TraceArtifact {
  static constexpr int kSchemaVersion = 3;
  static constexpr const char* kKind = "power_trace";

  std::string experiment;
  odharness::Provenance provenance;

  struct LabeledTrace {
    std::string label;
    uint64_t seed = 0;
    PowerTrace trace;
  };
  std::vector<LabeledTrace> traces;

  void Add(std::string label, uint64_t seed, PowerTrace trace);
  // The recorded trace with this label, or nullptr.  Labels are unique per
  // artifact; the diff engine matches traces by label, not position.
  const LabeledTrace* FindTrace(const std::string& label) const;

  JsonValue ToJson() const;
  // Reconstructs an artifact from ToJson() output.  Returns nullopt —
  // never crashes — when `json` is not a power_trace document (wrong kind
  // or version, missing experiment, malformed trace entries).
  static std::optional<TraceArtifact> FromJson(const JsonValue& json);

  // Tolerant read of a document odharness::WriteJsonFile wrote from
  // ToJson(), as the run scheduler writes every trace artifact.
  static std::optional<TraceArtifact> ReadFile(const std::string& path);
};

// Stamps `artifact` with the context's experiment name and provenance
// (call after any fault plan has been recorded) and hands it to the
// context as the aux document "<experiment>.trace.json", which the
// scheduler writes next to the scalar artifact.
void AttachTraceArtifact(odharness::RunContext& ctx, TraceArtifact artifact);

}  // namespace odtrace

#endif  // SRC_TRACE_TRACE_ARTIFACT_H_
