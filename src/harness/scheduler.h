// Experiment-level scheduling for `odbench run <name|all>`.
//
// RunExperiment executes one registered experiment: prints its header and
// footer, times it, and writes the JSON artifact.  A failed artifact write
// is a nonzero exit, not a stderr whisper — CI must not pass with missing
// artifacts.
//
// RunExperiments runs a whole suite.  With --jobs > 1 (on POSIX) it forks
// one child per experiment, starting them in registry order, and bounds
// *total* concurrency — child processes plus every trial/sweep
// helper thread inside them — with one jobserver pipe shared through
// JobBudget: a child's main thread costs one token (held by the parent for
// the child's lifetime) and each helper thread inside any child costs one
// more, so `--jobs J` never oversubscribes no matter how the levels nest.
//
// Determinism contract: each child's stdout+stderr is captured to a log
// file and replayed in registry order as experiments complete, and the
// artifacts are byte-identical to a serial run — the parallel run differs
// only in the wall-clock numbers printed to the console.

#ifndef SRC_HARNESS_SCHEDULER_H_
#define SRC_HARNESS_SCHEDULER_H_

#include <vector>

#include "src/harness/registry.h"

namespace odharness {

// Runs one experiment under `options`, writing its artifact when
// options.out_dir is set.  Returns the experiment's rc, or nonzero when
// the artifact cannot be written.
int RunExperiment(const Experiment& experiment, const RunOptions& options);

// Runs every experiment, overlapping them under the shared job budget when
// options.jobs > 1; output is replayed in list order.  Returns the worst
// per-experiment rc.  Falls back to a serial loop when jobs <= 1 or the
// platform cannot fork.
int RunExperiments(const std::vector<const Experiment*>& experiments,
                   const RunOptions& options);

}  // namespace odharness

#endif  // SRC_HARNESS_SCHEDULER_H_
