// Property test: the round-robin CPU scheduler is work-conserving and
// complete under randomized submission patterns — every work item finishes,
// observed busy time equals submitted work, and completions never precede
// submission time plus work.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odsim {
namespace {

class BusyTimeRecorder : public CpuObserver {
 public:
  void OnCpuContextSwitch(SimTime now, ProcessId pid, ProcedureId /*proc*/,
                          bool busy) override {
    if (current_busy_) {
      busy_seconds_ += (now - since_).seconds();
      per_pid_[current_pid_] += (now - since_).seconds();
    }
    current_busy_ = busy;
    current_pid_ = pid;
    since_ = now;
  }

  double busy_seconds() const { return busy_seconds_; }
  double pid_seconds(ProcessId pid) const {
    auto it = per_pid_.find(pid);
    return it == per_pid_.end() ? 0.0 : it->second;
  }

 private:
  bool current_busy_ = false;
  ProcessId current_pid_ = kIdlePid;
  SimTime since_;
  double busy_seconds_ = 0.0;
  std::map<ProcessId, double> per_pid_;
};

class SchedulerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SchedulerPropertyTest, WorkConservingAndComplete) {
  Simulator sim;
  BusyTimeRecorder recorder;
  sim.AddCpuObserver(&recorder);
  odutil::Rng rng(GetParam());

  struct Job {
    SimTime submitted;
    SimDuration work;
    ProcessId pid;
    bool completed = false;
    SimTime completed_at;
  };
  std::vector<Job> jobs(30);

  std::map<ProcessId, double> submitted_per_pid;
  double total_work = 0.0;
  for (Job& job : jobs) {
    double at = rng.Uniform(0.0, 30.0);
    double work = rng.Uniform(0.01, 3.0);
    job.submitted = SimTime::Seconds(at);
    job.work = SimDuration::Seconds(work);
    job.pid = sim.processes().RegisterProcess("p" +
                                              std::to_string(rng.UniformInt(0, 4)));
    submitted_per_pid[job.pid] += work;
    total_work += work;
    sim.ScheduleAt(job.submitted, [&sim, &job] {
      sim.SubmitWork(job.pid, kIdleProc, job.work, [&sim, &job] {
        job.completed = true;
        job.completed_at = sim.Now();
      });
    });
  }

  sim.Run();

  double busy = recorder.busy_seconds();
  // Work durations are rounded to integer microseconds on submission.
  EXPECT_NEAR(busy, total_work, 1e-4) << "seed " << GetParam();

  for (const Job& job : jobs) {
    EXPECT_TRUE(job.completed);
    // A job cannot finish before its own work could possibly execute.
    EXPECT_GE(job.completed_at, job.submitted + job.work);
  }

  // Per-pid busy time matches per-pid submitted work.
  for (const auto& [pid, work] : submitted_per_pid) {
    EXPECT_NEAR(recorder.pid_seconds(pid), work, 1e-4);
  }

  // The CPU ends idle.
  EXPECT_EQ(sim.current_pid(), kIdlePid);
  EXPECT_TRUE(sim.RunnablePids().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace odsim
