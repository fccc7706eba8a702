#include "src/powerscope/smart_battery.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/power/cpu.h"
#include "src/power/machine.h"
#include "src/sim/simulator.h"

namespace odscope {
namespace {

struct Rig {
  odsim::Simulator sim;
  odpower::Machine machine{&sim, 0.0};
  odpower::OtherComponent* other =
      machine.AddComponent(std::make_unique<odpower::OtherComponent>(10.0));

  SmartBatteryConfig Clean() {
    SmartBatteryConfig config;
    config.noise_watts = 0.0;
    config.jitter_fraction = 0.0;
    return config;
  }
};

TEST(SmartBatteryTest, OverheadDrawsRealPower) {
  Rig rig;
  double before = rig.machine.TotalPower();
  SmartBattery monitor(&rig.sim, &rig.machine, rig.Clean(), 1);
  EXPECT_NEAR(rig.machine.TotalPower() - before, 0.010, 1e-9);
  EXPECT_NE(rig.machine.FindComponent("SmartBattery"), nullptr);
}

TEST(SmartBatteryTest, ReadingsAreQuantized) {
  Rig rig;
  SmartBattery monitor(&rig.sim, &rig.machine, rig.Clean(), 1);
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  double reading = monitor.last_watts();
  EXPECT_NEAR(std::remainder(reading, 0.1), 0.0, 1e-9);
  // 10.01 W true draw rounds to 10.0 with the gauge's 0.1 W quantum.
  EXPECT_DOUBLE_EQ(reading, 10.0);
}

TEST(SmartBatteryTest, IntegratesEnergyAtCoarseRate) {
  Rig rig;
  SmartBattery monitor(&rig.sim, &rig.machine, rig.Clean(), 1);
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(100));
  // ~10.01 W over 100 s, read once per second.
  EXPECT_NEAR(monitor.measured_joules(), 1001.0, 15.0);
}

TEST(SmartBatteryTest, PeriodIsOneSecondByDefault) {
  Rig rig;
  SmartBattery monitor(&rig.sim, &rig.machine, rig.Clean(), 1);
  EXPECT_EQ(monitor.period(), odsim::SimDuration::Seconds(1));
  int readings = 0;
  monitor.set_callback([&](odsim::SimTime, double) { ++readings; });
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(readings, 11);
}

TEST(SmartBatteryTest, ImplementsPowerMonitorInterface) {
  Rig rig;
  SmartBattery smart(&rig.sim, &rig.machine, rig.Clean(), 1);
  PowerMonitor* monitor = &smart;
  monitor->Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(2));
  EXPECT_GT(monitor->last_watts(), 9.0);
  monitor->Stop();
}

}  // namespace
}  // namespace odscope
