// Experiment-level scheduling for `odbench run <name|all>`.
//
// RunExperiment executes one registered experiment: prints its header and
// footer, times it, and writes the JSON artifact.  A failed artifact write
// is a nonzero exit, not a stderr whisper — CI must not pass with missing
// artifacts.
//
// RunExperiments runs a whole suite, one experiment after another in list
// order, in this process.  Parallelism lives inside each experiment: its
// RunContext carries --jobs to the trial pools and sweep cells, which draw
// helper threads from the one JobBudget.  The console reads the same for
// any --jobs, and the artifacts are byte-identical to a --jobs 1 run; only
// the printed wall-clock numbers differ.

#ifndef SRC_HARNESS_SCHEDULER_H_
#define SRC_HARNESS_SCHEDULER_H_

#include <vector>

#include "src/harness/registry.h"

namespace odharness {

// Runs one experiment under `options`, writing its artifact when
// options.out_dir is set.  Returns the experiment's rc, or nonzero when
// the artifact cannot be written.
int RunExperiment(const Experiment& experiment, const RunOptions& options);

// Runs every experiment in list order under `options`.  Returns the worst
// per-experiment rc.
int RunExperiments(const std::vector<const Experiment*>& experiments,
                   const RunOptions& options);

}  // namespace odharness

#endif  // SRC_HARNESS_SCHEDULER_H_
