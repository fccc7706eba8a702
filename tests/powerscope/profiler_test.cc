#include "src/powerscope/profiler.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odscope {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);

  MultimeterConfig NoiselessConfig() {
    MultimeterConfig config;
    config.noise_amps = 0.0;
    return config;
  }
};

TEST(ProfilerTest, SampledEnergyMatchesAnalyticWithinSamplingError) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  odsim::ProcessId pid = rig.sim.processes().RegisterProcess("worker");
  odsim::ProcedureId proc = rig.sim.processes().RegisterProcedure("_w");

  profiler.Start();
  rig.laptop->accounting().Reset(rig.sim.Now());
  rig.sim.SubmitWork(pid, proc, odsim::SimDuration::Seconds(3), nullptr);
  rig.sim.Schedule(odsim::SimDuration::Seconds(5), [&] {
    rig.laptop->display().Set(odpower::DisplayState::kOff);
  });
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  profiler.Stop();

  double analytic = rig.laptop->accounting().TotalJoules(rig.sim.Now());
  double sampled = profiler.SampledJoules();
  EXPECT_NEAR(sampled, analytic, 0.02 * analytic);
}

TEST(ProfilerTest, CorrelateAttributesEnergyToProcesses) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  odsim::ProcessId pid = rig.sim.processes().RegisterProcess("worker");
  odsim::ProcedureId proc = rig.sim.processes().RegisterProcedure("_busyloop");

  profiler.Start();
  rig.sim.SubmitWork(pid, proc, odsim::SimDuration::Seconds(2), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(4));
  profiler.Stop();

  EnergyProfile profile = profiler.Correlate();
  // Both the worker and the idle loop must appear.
  EXPECT_GT(profile.ProcessJoules("worker"), 0.0);
  EXPECT_GT(profile.ProcessJoules("Idle"), 0.0);
  // Worker ran at higher draw (CPU busy) for 2 s; idle for 2 s.
  EXPECT_GT(profile.ProcessJoules("worker"), profile.ProcessJoules("Idle"));
}

TEST(ProfilerTest, CpuTimeMatchesSubmittedWork) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  odsim::ProcessId pid = rig.sim.processes().RegisterProcess("worker");
  odsim::ProcedureId proc = rig.sim.processes().RegisterProcedure("_w");

  profiler.Start();
  rig.sim.SubmitWork(pid, proc, odsim::SimDuration::Seconds(2), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(4));
  profiler.Stop();

  EnergyProfile profile = profiler.Correlate();
  for (const ProcessProfile& p : profile.processes()) {
    if (p.summary.name == "worker") {
      EXPECT_NEAR(p.summary.cpu_seconds, 2.0, 0.05);
    }
  }
}

TEST(ProfilerTest, ProcedureDetailSumsToProcess) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  odsim::ProcessId pid = rig.sim.processes().RegisterProcess("worker");
  odsim::ProcedureId p1 = rig.sim.processes().RegisterProcedure("_alpha");
  odsim::ProcedureId p2 = rig.sim.processes().RegisterProcedure("_beta");

  profiler.Start();
  rig.sim.SubmitWork(pid, p1, odsim::SimDuration::Seconds(1), nullptr);
  rig.sim.SubmitWork(pid, p2, odsim::SimDuration::Seconds(1), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  profiler.Stop();

  EnergyProfile profile = profiler.Correlate();
  for (const ProcessProfile& p : profile.processes()) {
    double detail_sum = 0.0;
    for (const ProfileEntry& entry : p.procedures) {
      detail_sum += entry.joules;
    }
    EXPECT_NEAR(detail_sum, p.summary.joules, 1e-9);
  }
}

TEST(ProfilerTest, FormatContainsFigure2Columns) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  odsim::ProcessId pid = rig.sim.processes().RegisterProcess("xanim");
  odsim::ProcedureId proc = rig.sim.processes().RegisterProcedure("_Dispatcher");

  profiler.Start();
  rig.sim.SubmitWork(pid, proc, odsim::SimDuration::Seconds(1), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(2));
  profiler.Stop();

  std::string out = profiler.Correlate().Format();
  EXPECT_NE(out.find("Process"), std::string::npos);
  EXPECT_NE(out.find("Total Energy"), std::string::npos);
  EXPECT_NE(out.find("Avg Power"), std::string::npos);
  EXPECT_NE(out.find("xanim"), std::string::npos);
  EXPECT_NE(out.find("Energy Usage Detail"), std::string::npos);
  EXPECT_NE(out.find("_Dispatcher"), std::string::npos);
}

TEST(ProfilerTest, ProfileSortedByDescendingEnergy) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  odsim::ProcessId small = rig.sim.processes().RegisterProcess("small");
  odsim::ProcessId big = rig.sim.processes().RegisterProcess("big");
  odsim::ProcedureId proc = rig.sim.processes().RegisterProcedure("_w");

  profiler.Start();
  rig.sim.SubmitWork(small, proc, odsim::SimDuration::Seconds(0.5), nullptr);
  rig.sim.Schedule(odsim::SimDuration::Seconds(1), [&] {
    rig.sim.SubmitWork(big, proc, odsim::SimDuration::Seconds(3), nullptr);
  });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  profiler.Stop();

  EnergyProfile profile = profiler.Correlate();
  ASSERT_GE(profile.processes().size(), 2u);
  for (size_t i = 1; i < profile.processes().size(); ++i) {
    EXPECT_GE(profile.processes()[i - 1].summary.joules,
              profile.processes()[i].summary.joules);
  }
}

TEST(ProfilerTest, TotalsConsistency) {
  Rig rig;
  Profiler profiler(&rig.sim, &rig.laptop->machine(), rig.NoiselessConfig());
  profiler.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(2));
  profiler.Stop();
  EnergyProfile profile = profiler.Correlate();
  // Correlate() uses exact inter-sample spacing; SampledJoules() assumes the
  // nominal period throughout, so the two differ only at stream edges.
  EXPECT_NEAR(profile.TotalJoules(), profiler.SampledJoules(), 0.01);
  // The profile spans the 2 s run: the Total row averages over 2 s.
  const std::string text = profile.Format();
  const size_t row = text.find("\nTotal ");
  ASSERT_NE(row, std::string::npos);
  double cpu_seconds = 0.0, joules = 0.0, watts = 0.0;
  ASSERT_EQ(std::sscanf(text.c_str() + row + 6, "%lf %lf %lf", &cpu_seconds,
                        &joules, &watts),
            3);
  EXPECT_NEAR(watts, joules / 2.0, 0.01);
}

}  // namespace
}  // namespace odscope
