#include "src/harness/job_budget.h"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/check.h"

namespace odharness {

JobBudget& JobBudget::Global() {
  static JobBudget* budget = new JobBudget();
  return *budget;
}

void JobBudget::Configure(int tokens) {
  tokens_.store(tokens < 0 ? 0 : tokens, std::memory_order_relaxed);
}

bool JobBudget::TryAcquire() {
  int available = tokens_.load(std::memory_order_relaxed);
  while (available > 0) {
    if (tokens_.compare_exchange_weak(available, available - 1,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void JobBudget::Release() { tokens_.fetch_add(1, std::memory_order_relaxed); }

void ParallelFor(int n, int max_workers,
                 const std::function<void(int)>& task) {
  OD_CHECK(n >= 0);
  if (n == 0) {
    return;
  }

  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  // Exceptions recorded per task index; the lowest-index one wins so the
  // propagated error does not depend on thread completion order.
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  std::mutex error_mutex;

  auto work = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        errors[static_cast<size_t>(i)] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const int wanted = (max_workers < n ? max_workers : n) - 1;
  std::vector<std::thread> helpers;
  if (wanted > 0) {
    JobBudget& budget = JobBudget::Global();
    helpers.reserve(static_cast<size_t>(wanted));
    for (int w = 0; w < wanted; ++w) {
      if (next.load(std::memory_order_relaxed) >= n || !budget.TryAcquire()) {
        break;  // Tasks exhausted, or no token free: the caller works alone.
      }
      helpers.emplace_back([&budget, &work] {
        work();
        budget.Release();
      });
    }
  }
  work();
  for (std::thread& helper : helpers) {
    helper.join();
  }

  if (failed.load(std::memory_order_relaxed)) {
    for (std::exception_ptr& error : errors) {
      if (error != nullptr) {
        std::rethrow_exception(error);
      }
    }
  }
}

}  // namespace odharness
