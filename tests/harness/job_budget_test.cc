#include "src/harness/job_budget.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace odharness {
namespace {

// The global budget outlives each test; restore the unlimited default so
// tests cannot leak tokens (or the lack of them) into one another.
class JobBudgetTest : public testing::Test {
 protected:
  void TearDown() override {
    JobBudget::Global().Configure(JobBudget::kUnlimited);
  }
};

TEST_F(JobBudgetTest, UnconfiguredAlwaysGrants) {
  // Until a RunContext configures it, the budget is unlimited.
  JobBudget& budget = JobBudget::Global();
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(budget.TryAcquire());
  }
}

TEST_F(JobBudgetTest, LocalModeBoundsAndRecyclesTokens) {
  JobBudget& budget = JobBudget::Global();
  budget.Configure(2);
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());  // Budget exhausted.
  budget.Release();
  EXPECT_TRUE(budget.TryAcquire());  // Released token is reusable.
  EXPECT_FALSE(budget.TryAcquire());
}

TEST_F(JobBudgetTest, NegativeTokenCountClampsToZero) {
  JobBudget& budget = JobBudget::Global();
  budget.Configure(-5);
  EXPECT_FALSE(budget.TryAcquire());
}

TEST_F(JobBudgetTest, ParallelForRunsEveryIndexExactlyOnce) {
  JobBudget::Global().Configure(3);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  ParallelFor(kTasks, 4, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "task " << i;
  }
}

TEST_F(JobBudgetTest, ParallelForZeroTasksIsANoop) {
  ParallelFor(0, 8, [](int) { FAIL() << "no task should run"; });
}

TEST_F(JobBudgetTest, ParallelForWorksWithExhaustedBudget) {
  // No helper token available: the calling thread must still finish all
  // work alone (acquisition is non-blocking by design).
  JobBudget::Global().Configure(0);
  std::vector<int> order;
  ParallelFor(5, 8, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);  // Serial, in index order.
  }
}

TEST_F(JobBudgetTest, ParallelForRethrowsLowestIndexException) {
  JobBudget::Global().Configure(3);
  try {
    ParallelFor(8, 4, [](int i) {
      if (i >= 2) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "ParallelFor must propagate the task exception";
  } catch (const std::runtime_error& e) {
    // Tasks are handed out in index order, so of the tasks that actually
    // started, the lowest-index thrower (task 2) wins deterministically.
    EXPECT_STREQ(e.what(), "task 2");
  }
}

}  // namespace
}  // namespace odharness
