#include "src/power/component.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/power/cpu.h"
#include "src/power/disk.h"
#include "src/power/display.h"
#include "src/power/machine.h"
#include "src/power/wavelan.h"
#include "src/sim/simulator.h"

namespace odpower {
namespace {

TEST(ComponentTest, StatePowerLookup) {
  Display display(3.0, 2.0);
  EXPECT_DOUBLE_EQ(display.power(), 3.0);
  display.Set(DisplayState::kDim);
  EXPECT_DOUBLE_EQ(display.power(), 2.0);
  display.Set(DisplayState::kOff);
  EXPECT_DOUBLE_EQ(display.power(), 0.0);
}

// A component is active, for the machine's superlinear term, while it
// draws more than kActiveThresholdWatts.
TEST(ComponentTest, ActiveThreshold) {
  odsim::Simulator sim;
  Machine machine(&sim, 0.07);
  machine.AddComponent(std::make_unique<OtherComponent>(3.0));
  WaveLan* wavelan =
      machine.AddComponent(std::make_unique<WaveLan>(1.65, 1.40, 0.88, 0.18));
  EXPECT_DOUBLE_EQ(machine.SynergyPower(), 0.07);  // Idle 0.88 > 0.5.
  wavelan->Set(WaveLanState::kStandby);
  EXPECT_DOUBLE_EQ(machine.SynergyPower(), 0.0);  // 0.18 < 0.5.
}

TEST(ComponentTest, DisplayZonedPower) {
  Display display(4.0, 2.0);
  display.SetZonedLitFraction(0.25);
  EXPECT_TRUE(display.zoned());
  EXPECT_DOUBLE_EQ(display.power(), 1.0);  // 4.0 * 0.25, unlit zones dark.
  display.ClearZoning();
  EXPECT_DOUBLE_EQ(display.power(), 4.0);
}

TEST(ComponentTest, ZoningOnlyAffectsBrightState) {
  Display display(4.0, 2.0);
  display.SetZonedLitFraction(0.25);
  display.Set(DisplayState::kDim);
  EXPECT_DOUBLE_EQ(display.power(), 2.0);
  display.Set(DisplayState::kOff);
  EXPECT_DOUBLE_EQ(display.power(), 0.0);
}

TEST(ComponentTest, DiskStatesAndSpinup) {
  Disk disk(2.2, 0.96, 0.16, 3.0, odsim::SimDuration::Seconds(1.5));
  EXPECT_EQ(disk.disk_state(), DiskState::kIdle);
  disk.Set(DiskState::kStandby);
  EXPECT_DOUBLE_EQ(disk.power(), 0.16);
  disk.Set(DiskState::kSpinup);
  EXPECT_DOUBLE_EQ(disk.power(), 3.0);
  EXPECT_EQ(disk.spinup_time(), odsim::SimDuration::Seconds(1.5));
}

TEST(ComponentTest, CpuTracksSchedulerContext) {
  odsim::Simulator sim;
  Machine machine(&sim, 0.0);
  Cpu* cpu = machine.AddComponent(std::make_unique<Cpu>(6.0));
  sim.AddCpuObserver(cpu);
  EXPECT_DOUBLE_EQ(cpu->power(), 0.0);

  odsim::ProcessId pid = sim.processes().RegisterProcess("p");
  odsim::ProcedureId proc = sim.processes().RegisterProcedure("_p");
  sim.SubmitWork(pid, proc, odsim::SimDuration::Seconds(1), nullptr);
  EXPECT_DOUBLE_EQ(cpu->power(), 6.0);
  sim.Run();
  EXPECT_DOUBLE_EQ(cpu->power(), 0.0);
}

TEST(ComponentTest, SetStateIgnoresNoop) {
  odsim::Simulator sim;
  Machine machine(&sim, 0.0);
  Display* display =
      machine.AddComponent(std::make_unique<Display>(3.0, 2.0));
  // Re-setting the same state must be a silent no-op.
  display->Set(DisplayState::kBright);
  EXPECT_DOUBLE_EQ(display->power(), 3.0);
}

}  // namespace
}  // namespace odpower
