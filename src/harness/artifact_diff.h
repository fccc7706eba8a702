// Structural comparison of two run artifacts.
//
// `odbench diff a.json b.json [--rtol R --atol A]` turns the JSON artifacts
// from byte-diffable blobs into a regression oracle: sets are matched by
// label (order-insensitive) and notes by key, every measured cell — trial
// values, per-trial breakdowns and components, trial counts, seeds — is
// compared, and each numeric difference is classified against the
// tolerance |a - b| <= atol + rtol * max(|a|, |b|).  NaN compares equal to
// NaN and each infinity to itself; any other non-finite mismatch is out of
// tolerance.
//
// Severity maps to the CLI exit code:
//   0  identical — every compared cell bit-equal;
//   1  drift     — numeric changes only, all within tolerance;
//   2  regression — out-of-tolerance changes, or structure changed (set or
//                   note present on one side only, trial count or seed
//                   mismatch, different experiment or exit code).
//
// Provenance (git revision, seed policy, calibration constants) is
// self-describing metadata, not measured content: differences are reported
// as hints — a perturbed calibration constant is named right next to the
// sets it shifted — but never affect the severity, so a committed golden
// still compares identical against a fresh run from a later commit.

#ifndef SRC_HARNESS_ARTIFACT_DIFF_H_
#define SRC_HARNESS_ARTIFACT_DIFF_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/artifact.h"

namespace odharness {

struct DiffOptions {
  double rtol = 0.0;  // Relative tolerance.
  double atol = 0.0;  // Absolute tolerance.
};

// True when x and y are equal under the diff's tolerance rule.
bool WithinTolerance(double x, double y, const DiffOptions& options);

// Human-readable descriptions of every provenance difference between `a`
// and `b` (empty when the blocks match).  Shared by the scalar diff and the
// trace diff (src/trace/trace_diff.h) so both report provenance drift the
// same way — always as information, never as a verdict.
std::vector<std::string> ProvenanceHints(const Provenance& a,
                                         const Provenance& b);

struct ArtifactDiff {
  enum class Severity { kIdentical = 0, kDrift = 1, kRegression = 2 };

  struct Change {
    enum class Kind {
      kAddedInB,    // Cell exists only in the second artifact.
      kRemovedInB,  // Cell exists only in the first.
      kChanged,     // Numeric value differs; `within` classifies it.
      kStructural,  // Non-tolerance-eligible mismatch (seed, count, name).
    };
    Kind kind = Kind::kChanged;
    // Dotted location, e.g. "sets[Video 1/Combined].trials[3].value" or
    // "notes[background_watts]".
    std::string path;
    double a = 0.0, b = 0.0;  // Values for kChanged.
    std::string detail;       // Human-readable summary for the other kinds.
    bool within = false;      // kChanged only: inside the tolerance?
  };

  Severity severity = Severity::kIdentical;
  std::vector<Change> changes;
  // Provenance differences (informational; never affect severity).
  std::vector<std::string> provenance_hints;

  // The `odbench diff` exit code for this comparison: 0, 1, or 2.
  int ExitCode() const { return static_cast<int>(severity); }
};

ArtifactDiff DiffArtifacts(const RunArtifact& a, const RunArtifact& b,
                           const DiffOptions& options = {});

// Prints a human-readable report (changes first, provenance hints after,
// one-line verdict last).  Quiet when the artifacts are identical and no
// provenance drifted.
void PrintArtifactDiff(const ArtifactDiff& diff, std::FILE* out);

}  // namespace odharness

#endif  // SRC_HARNESS_ARTIFACT_DIFF_H_
