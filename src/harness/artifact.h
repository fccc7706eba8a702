// Structured run artifacts.
//
// Every odbench run emits one JSON document per experiment alongside the
// ASCII tables: the experiment name, each recorded trial set (per-trial
// samples with breakdowns, summary mean/stddev/90% CI, cross-trial breakdown
// means), and named scalar notes.  These files are the machine-readable
// performance trajectory of the repo and the regression oracle that
// `odbench diff` (src/harness/artifact_diff.h) and the replay-mode repro
// tests (tests/repro/artifact_replay.h) consume.
//
// The document contains *measured content only* — deliberately no wall
// clock and no job count — so an artifact is byte-identical for any --jobs
// value and diffable across runs (the scheduler's determinism contract; CI
// enforces it).  Wall-clock timings go to the console.  The provenance
// block records *how* the numbers were produced (calibration constants,
// git revision, seed policy); it is self-describing metadata, not measured
// content, and artifact diffs report it informationally without letting it
// affect the comparison verdict.
//
// Schema (version 3; version-2 documents, which lack "provenance", are
// still readable):
//   {
//     "schema_version": 3,
//     "experiment": "fig06_video",
//     "exit_code": 0,
//     "provenance": {
//       "git_revision": "c54b220",
//       "seed_policy": {"trials_override": 0, "seed_override": 0},
//       "calibration": {"video.chunk_seconds": 0.5, ...}
//     },
//     "sets": [
//       {
//         "label": "Video 1/Combined",
//         "base_seed": 1000,
//         "trials": [
//           {"value": 470.1,
//            "breakdown": {"Idle": 121.9, ...},
//            "components": {"CPU": 88.2, ...}},
//           ...
//         ],
//         "summary": {"n": 5, "mean": ..., "stddev": ..., "ci90": ...,
//                     "min": ..., "max": ...},
//         "breakdown_means": {"Idle": ..., ...}
//       }
//     ],
//     "notes": {"background_watts": 5.6, ...}
//   }

#ifndef SRC_HARNESS_ARTIFACT_H_
#define SRC_HARNESS_ARTIFACT_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/json.h"
#include "src/harness/trial_runner.h"

namespace odharness {

// How an artifact's numbers were produced: the calibration constants in
// effect, the git revision of the build, and whether --trials/--seed
// overrode the experiments' paper defaults.  Equal measurements with
// different provenance are still equal — diffs surface provenance drift as
// information, never as a regression by itself.
struct Provenance {
  std::string git_revision = "unknown";
  // The --trials / --seed overrides (0 = paper defaults everywhere).
  int trials_override = 0;
  uint64_t seed_override = 0;
  // The fault plan (odfault spec grammar) the run was disturbed by; empty
  // for clean runs and omitted from the JSON so pre-fault artifacts stay
  // byte-identical.
  std::string fault_plan;
  // The user-behavior scenario(s) (odscenario grammar, canonical spelling)
  // the run's workload replayed; empty for fixed-workload runs and omitted
  // from the JSON so pre-scenario artifacts stay byte-identical.
  std::string scenario;
  // Calibration constants in registration order (see
  // SetProvenanceCalibration); empty when no application layer registered.
  std::vector<std::pair<std::string, double>> calibration;
};

// Registers the process-wide calibration constants stamped into every
// artifact's provenance.  The application layer owns the constants (the
// harness cannot depend on it), so odbench's main() calls this once with
// odapps::CalibrationConstants() before running anything.
void SetProvenanceCalibration(
    std::vector<std::pair<std::string, double>> constants);
const std::vector<std::pair<std::string, double>>& ProvenanceCalibration();

// The git revision compiled into this binary (CMake configure time), or
// "unknown" outside a git checkout.
std::string BuildGitRevision();

// Provenance <-> JSON, shared by every schema-v3 document kind (the scalar
// RunArtifact and the odtrace power-trace artifact stamp the same block so
// one diff hint path serves both).  FromJson tolerates a null/absent block
// (v2 compatibility): it returns a default-constructed Provenance.
JsonValue ProvenanceToJson(const Provenance& provenance);
Provenance ProvenanceFromJson(const JsonValue* json);

// Serializes `json` to `path` via a temp file + rename, so a crashed or
// killed writer never leaves a truncated document for a later diff or
// replay to consume.  Pretty-printed by default; `compact` emits a single
// line.  Returns false on I/O failure.
bool WriteJsonFile(const std::string& path, const JsonValue& json,
                   bool compact = false);

struct RunArtifact {
  static constexpr int kSchemaVersion = 3;
  // Oldest schema FromJson still accepts; v2 documents predate provenance
  // and read back with a default-constructed block.
  static constexpr int kMinReadSchemaVersion = 2;

  std::string experiment;
  int exit_code = 0;
  Provenance provenance;

  struct LabeledSet {
    std::string label;
    TrialSet set;
  };
  std::vector<LabeledSet> sets;
  // Named scalars (claims, calibration ratios, fit parameters) in
  // insertion order.
  std::vector<std::pair<std::string, double>> notes;

  void AddSet(std::string label, TrialSet set);
  void AddNote(std::string key, double value);

  // The recorded set with this label, or nullptr.  Labels are unique per
  // artifact; lookup is what the diff and replay layers match sets by.
  const LabeledSet* FindSet(const std::string& label) const;
  // The recorded note value, when present.
  std::optional<double> FindNote(const std::string& key) const;

  JsonValue ToJson() const;
  // Reconstructs an artifact (summaries included) from ToJson() output.
  // Accepts schema versions kMinReadSchemaVersion..kSchemaVersion; returns
  // nullopt — never crashes — when `json` does not match the schema
  // (wrong version, missing experiment, malformed set entries).
  static std::optional<RunArtifact> FromJson(const JsonValue& json);

  // Serializes to `path` via a temp file + rename, so a crashed or killed
  // writer never leaves a truncated document for a later diff or replay to
  // consume.  Pretty-printed by default; `compact` emits a single line
  // (same content, ~4x smaller — the committed golden fixtures use it).
  // Returns false on I/O failure.
  bool WriteFile(const std::string& path, bool compact = false) const;
  static std::optional<RunArtifact> ReadFile(const std::string& path);
};

}  // namespace odharness

#endif  // SRC_HARNESS_ARTIFACT_H_
