// Shape-level comparison of two power-trace artifacts.
//
// `odbench diff --traces a.json b.json [--rtol R --atol A --max-shift S]`
// compares the *shape* of two runs' power profiles, not just their scalar
// means — the gate the scalar diff cannot provide: a 200 ms stall in a
// high-power state moves a multi-hundred-joule total by well under any
// usable scalar tolerance, but it is a glaring new step in the trace.
//
// Alignment: traces are matched by label, components by name.  Two step
// functions over the same window are walked along their merged segment
// boundaries; every interval where the draws disagree beyond the
// |a - b| <= atol + rtol * max(|a|, |b|) band is divergent.  Adjacent
// divergent intervals merge into *windows*, and each window is classified
// by its duration against `max_shift_us`:
//
//   duration <= max_shift_us  -> drift.  A boundary that moved by less
//       than the shift band produces exactly such a short window (before
//       the move one side has switched and the other has not); tolerating
//       it absorbs benign event-ordering jitter without excusing any
//       sustained power difference.
//   duration >  max_shift_us  -> regression.  The profiles genuinely
//       disagree for longer than any permissible boundary shift.
//
// With max_shift_us = 0 every divergent window is a regression.  Trace
// windows of different durations are structurally different (the common
// prefix is still walked, and the report says where the tail begins).
//
// Severity maps to the same CLI exit codes as the scalar diff:
//   0 identical, 1 drift (all windows within the shift band), 2 regression
//   (a sustained divergence, or structure changed: label/component missing,
//   seed or duration mismatch, invalid trace).
//
// Provenance differences are hints, never verdicts — same contract as
// odharness::DiffArtifacts.

#ifndef SRC_TRACE_TRACE_DIFF_H_
#define SRC_TRACE_TRACE_DIFF_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/harness/artifact_diff.h"
#include "src/trace/trace_artifact.h"

namespace odtrace {

struct TraceDiffOptions {
  double rtol = 0.0;  // Relative tolerance on the draw, per interval.
  double atol = 0.0;  // Absolute tolerance on the draw, in watts.
  // Longest divergent window still classified as drift (boundary shift)
  // rather than regression, in microseconds.
  int64_t max_shift_us = 0;
};

struct TraceDiff {
  enum class Severity { kIdentical = 0, kDrift = 1, kRegression = 2 };

  // One component's divergence summary.  The *first* divergent window is
  // reported with its bounds and draws so a failing CI log pinpoints when
  // the profiles first part ways, not just which component moved.
  struct Divergence {
    // Dotted location, e.g. "traces[Video 1/Baseline].CPU".
    std::string path;
    int64_t first_begin_us = 0;  // First divergent window, absolute sim time.
    int64_t first_end_us = 0;
    double first_a_watts = 0.0;  // Draws at the window's opening interval.
    double first_b_watts = 0.0;
    size_t windows = 0;            // Total divergent windows.
    int64_t divergent_us = 0;      // Total divergent time across windows.
    bool within_shift = false;     // Every window within the shift band?
  };

  struct Structural {
    std::string path;
    std::string detail;
  };

  Severity severity = Severity::kIdentical;
  std::vector<Divergence> divergences;
  std::vector<Structural> structural;
  // Intervals where the draws differed but stayed inside the watt
  // tolerance band (raises severity to drift, like a within-tolerance
  // scalar cell, without producing a Divergence entry).
  size_t tolerated_intervals = 0;
  // Provenance differences (informational; never affect severity).
  std::vector<std::string> provenance_hints;

  // The `odbench diff --traces` exit code for this comparison: 0, 1, or 2.
  int ExitCode() const { return static_cast<int>(severity); }
};

TraceDiff DiffTraceArtifacts(const TraceArtifact& a, const TraceArtifact& b,
                             const TraceDiffOptions& options = {});

// Prints a human-readable report: per-component first-divergent-window
// lines first, structural mismatches next, provenance hints after, one-line
// verdict last.  Quiet when identical and no provenance drifted.
void PrintTraceDiff(const TraceDiff& diff, std::FILE* out);

}  // namespace odtrace

#endif  // SRC_TRACE_TRACE_DIFF_H_
