// A process-global budget of worker threads, shared by every layer of the
// harness that can run work concurrently.
//
// The trial pool (TrialRunner) and the sweep-cell pool (Sweep) draw *extra*
// workers from one budget, so `--jobs J` bounds the total number of
// computing threads no matter how the layers nest — a sweep cell that
// itself runs a trial set cannot multiply J×J threads (no pool-on-pool
// oversubscription).  The always-present calling thread is free: a budget
// token buys one helper thread beyond it.  Each experiment's RunContext
// sets the budget to jobs - 1 tokens; until something does, it is
// unlimited (standalone library use, e.g. a bare TrialRunner in a unit
// test).
//
// Acquisition is always non-blocking.  Work never waits for a token: the
// submitting thread executes tasks itself and helpers only join when a
// token is free, which is what makes the nesting deadlock-free.

#ifndef SRC_HARNESS_JOB_BUDGET_H_
#define SRC_HARNESS_JOB_BUDGET_H_

#include <atomic>
#include <functional>
#include <limits>

namespace odharness {

class JobBudget {
 public:
  static constexpr int kUnlimited = std::numeric_limits<int>::max();

  // The single process-wide budget.
  static JobBudget& Global();

  // Sets the budget to `tokens` helper slots (typically jobs - 1; negative
  // counts as 0).  Call it only while no token is held.
  void Configure(int tokens);

  // Takes one helper token; false when the budget is exhausted.
  bool TryAcquire();
  // Returns a token previously obtained from TryAcquire.
  void Release();

 private:
  std::atomic<int> tokens_{kUnlimited};
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
