// A process-global budget of worker threads, shared by every layer of the
// harness that can run work concurrently.
//
// Both the trial pool (TrialRunner), the sweep-cell pool (Sweep), and the
// experiment-level scheduler draw *extra* workers from one budget, so
// `--jobs J` bounds the total number of computing threads no matter how the
// layers nest — a sweep cell that itself runs a trial set cannot multiply
// J×J threads (no pool-on-pool oversubscription).  The always-present
// calling thread is free: a budget token buys one helper thread beyond it.
//
// Three modes:
//   - unconfigured: TryAcquire always succeeds (standalone library use,
//     e.g. a bare TrialRunner in a unit test keeps its historical behavior);
//   - local: an in-process atomic token counter (`odbench run <one>`);
//   - pipe: tokens are single bytes in an inherited pipe, the classic make
//     jobserver scheme, so the forked children of `odbench run all` and
//     their helper threads all share one budget across process boundaries.
//
// Acquisition is always non-blocking.  Work never waits for a token: the
// submitting thread executes tasks itself and helpers only join when a
// token is free, which is what makes the nesting deadlock-free.

#ifndef SRC_HARNESS_JOB_BUDGET_H_
#define SRC_HARNESS_JOB_BUDGET_H_

#include <atomic>
#include <functional>

namespace odharness {

class JobBudget {
 public:
  // The single process-wide budget.
  static JobBudget& Global();

  // Installs an in-process budget of `tokens` helper slots (typically
  // jobs - 1).  No-op when a pipe budget is active: a forked child must
  // keep drawing from its parent's pipe, not shadow it with a local pool.
  void ConfigureLocal(int tokens);

  // Installs the jobserver pipe (read end, write end).  The caller has
  // already stocked the pipe; the read end must be O_NONBLOCK.
  void ConfigurePipe(int read_fd, int write_fd);

  // Returns to the unconfigured (unlimited) state.  Test helper.
  void Reset();

  // Takes one helper token; false when the budget is exhausted.
  bool TryAcquire();
  // Returns a token previously obtained from TryAcquire.
  void Release();

 private:
  enum class Mode { kUnconfigured, kLocal, kPipe };

  Mode mode_ = Mode::kUnconfigured;
  std::atomic<int> local_tokens_{0};
  int read_fd_ = -1;
  int write_fd_ = -1;
};

// Runs task(0) .. task(n-1), in index order on the calling thread plus up
// to max_workers - 1 helper threads, each gated on a token from
// JobBudget::Global().  Tasks must be independent; results should be
// written to preallocated slots indexed by task id, which is what keeps
// callers' output identical for any worker count.  If tasks throw, the
// remaining tasks are abandoned and the exception from the lowest task
// index is rethrown (deterministically, regardless of completion order).
void ParallelFor(int n, int max_workers, const std::function<void(int)>& task);

}  // namespace odharness

#endif  // SRC_HARNESS_JOB_BUDGET_H_
