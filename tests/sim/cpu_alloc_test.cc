// Allocation budget of the simulated CPU.
//
// An allocation gate (tests/alloc_count.h).  The run queue reuses its
// storage once it has grown to its peak depth, and the pending slice end
// is a key in the event queue rather than a scheduled closure, so a warm
// round-robin allocates nothing as long as each completion fits inline in
// a std::function (at most 16 trivially copyable bytes).

#include <cstdint>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "tests/alloc_count.h"

namespace odsim {
namespace {

using odtest::Allocations;

// Three processes, each submitting its next work item from the previous
// one's completion; items span several quanta, so the queue rotates.
struct RoundRobin {
  Simulator sim;
  ProcessId pids[3] = {sim.processes().RegisterProcess("a"),
                       sim.processes().RegisterProcess("b"),
                       sim.processes().RegisterProcess("c")};
  ProcedureId proc = sim.processes().RegisterProcedure("_work");
  int completed = 0;

  void Submit(int i) {
    sim.SubmitWork(pids[i], proc, SimDuration::Millis(25 + 7 * i), [this, i] {
      ++completed;
      Submit(i);
    });
  }
};

TEST(CpuAllocTest, WarmRoundRobinAllocatesNothing) {
  RoundRobin rr;
  for (int i = 0; i < 3; ++i) {
    rr.Submit(i);
  }
  // Warm-up: the run queue and the event queue reach their peak sizes.
  rr.sim.RunUntil(SimTime::Seconds(2));

  const int completed = rr.completed;
  const uint64_t before = Allocations();
  rr.sim.RunUntil(SimTime::Seconds(62));
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u);
  // Each process completes one item per 96 ms (25 + 32 + 39): ~1,875 in all.
  EXPECT_GT(rr.completed - completed, 1800);
  EXPECT_EQ(rr.sim.runnable_count(), 3);
}

}  // namespace
}  // namespace odsim
