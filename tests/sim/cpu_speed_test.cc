#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odsim {
namespace {

TEST(CpuSpeedTest, HalfSpeedDoublesWallTime) {
  Simulator sim;
  sim.set_cpu_speed(0.5);
  ProcessId pid = sim.processes().RegisterProcess("p");
  ProcedureId proc = sim.processes().RegisterProcedure("_p");
  SimTime done_at;
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, SimTime::Seconds(2));
}

TEST(CpuSpeedTest, FullSpeedUnchanged) {
  Simulator sim;
  sim.set_cpu_speed(1.0);
  ProcessId pid = sim.processes().RegisterProcess("p");
  ProcedureId proc = sim.processes().RegisterProcedure("_p");
  SimTime done_at;
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, SimTime::Seconds(1));
}

TEST(CpuSpeedTest, RoundRobinFairnessPreservedAtReducedSpeed) {
  Simulator sim;
  sim.set_cpu_speed(0.25);
  ProcessId a = sim.processes().RegisterProcess("a");
  ProcessId b = sim.processes().RegisterProcess("b");
  ProcedureId proc = sim.processes().RegisterProcedure("_w");
  SimTime a_done, b_done;
  sim.SubmitWork(a, proc, SimDuration::Seconds(0.5), [&] { a_done = sim.Now(); });
  sim.SubmitWork(b, proc, SimDuration::Seconds(0.5), [&] { b_done = sim.Now(); });
  sim.Run();
  // 1 s total work at quarter speed: 4 s wall, both finishing near the end.
  EXPECT_EQ(b_done, SimTime::Seconds(4));
  EXPECT_GE(a_done, SimTime::Seconds(3.8));
}

TEST(CpuSpeedTest, SpeedChangeAppliesToSubsequentSlices) {
  Simulator sim;
  ProcessId pid = sim.processes().RegisterProcess("p");
  ProcedureId proc = sim.processes().RegisterProcedure("_p");
  SimTime done_at;
  sim.SubmitWork(pid, proc, SimDuration::Seconds(1), [&] { done_at = sim.Now(); });
  // Halve the clock midway through.
  sim.Schedule(SimDuration::Seconds(0.5), [&] { sim.set_cpu_speed(0.5); });
  sim.Run();
  // 0.5 s of work at full speed + 0.5 s of work at half speed = 1.5 s wall.
  EXPECT_NEAR(done_at.seconds(), 1.5, 0.02);
}

// quantum * speed can round to zero microseconds (sub-µs quantum at deep
// clock scaling); the dispatcher must still make forward progress instead
// of rescheduling a zero-length slice at the same timestamp forever.
TEST(CpuSpeedTest, ZeroLengthSliceIsClampedToMinimumProgress) {
  Simulator sim;
  sim.set_cpu_quantum(SimDuration::Micros(1));
  sim.set_cpu_speed(0.001);  // 1 µs quantum * 0.001 rounds to 0 µs of work.
  ProcessId pid = sim.processes().RegisterProcess("p");
  ProcedureId proc = sim.processes().RegisterProcedure("_p");
  SimTime done_at;
  sim.SubmitWork(pid, proc, SimDuration::Micros(10), [&] { done_at = sim.Now(); });
  sim.Run();
  // Each slice retires the 1 µs minimum at 1000 µs of wall time.
  EXPECT_EQ(done_at, SimTime::Micros(10000));
}

TEST(CpuSpeedTest, LaptopScalesPowerCubically) {
  Simulator sim;
  auto laptop = odpower::MakeThinkPad560X(&sim);
  ProcessId pid = sim.processes().RegisterProcess("p");
  ProcedureId proc = sim.processes().RegisterProcedure("_p");

  laptop->SetCpuSpeed(0.5);
  sim.SubmitWork(pid, proc, SimDuration::Seconds(10), nullptr);
  // Busy draw at half speed: 6.0 W * 0.5^3 = 0.75 W.
  EXPECT_NEAR(laptop->machine().FindComponent("CPU")->power(), 0.75, 1e-9);
}

TEST(CpuSpeedTest, RaceToIdleBeatsSlowdownForCpuBoundWork) {
  // With cubic power scaling and a large baseline platform draw, finishing
  // fast and halting wins for pure CPU work: the platform's fixed power
  // dominates the stretched runtime.
  auto measure = [](double speed) {
    Simulator sim;
    auto laptop = odpower::MakeThinkPad560X(&sim);
    laptop->SetCpuSpeed(speed);
    ProcessId pid = sim.processes().RegisterProcess("p");
    ProcedureId proc = sim.processes().RegisterProcedure("_p");
    sim.SubmitWork(pid, proc, SimDuration::Seconds(10), nullptr);
    sim.Run();
    return laptop->accounting().TotalJoules(sim.Now());
  };
  // Energy to complete the job, including platform power while it runs.
  double fast = measure(1.0);
  double slow = measure(0.5);
  EXPECT_LT(fast, slow);
}

TEST(CpuSpeedTest, SlowdownWinsOnCpuEnergyAlone) {
  // Looking only at the CPU component, slowing down saves energy (the
  // classic DVS argument): half speed costs 2x time at 1/8 power.
  auto cpu_joules = [](double speed) {
    Simulator sim;
    auto laptop = odpower::MakeThinkPad560X(&sim);
    laptop->SetCpuSpeed(speed);
    ProcessId pid = sim.processes().RegisterProcess("p");
    ProcedureId proc = sim.processes().RegisterProcedure("_p");
    sim.SubmitWork(pid, proc, SimDuration::Seconds(10), nullptr);
    sim.Run();
    int cpu_index = -1;
    for (int i = 0; i < laptop->machine().component_count(); ++i) {
      if (laptop->machine().component(i).name() == "CPU") {
        cpu_index = i;
      }
    }
    return laptop->accounting().ComponentJoules(cpu_index, sim.Now());
  };
  EXPECT_LT(cpu_joules(0.5), cpu_joules(1.0));
}

}  // namespace
}  // namespace odsim
