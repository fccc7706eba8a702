#include "src/powerscope/online_monitor.h"

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

  OnlineMonitorConfig Noiseless() {
    OnlineMonitorConfig config;
    config.noise_watts = 0.0;
    return config;
  }
};

TEST(OnlineMonitorTest, TracksLastSample) {
  Rig rig;
  OnlineMonitor monitor(&rig.sim, &rig.machine, rig.Noiseless(), 1);
  double last_watts = 0.0;
  monitor.set_callback([&](odsim::SimTime, double watts) { last_watts = watts; });
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  EXPECT_DOUBLE_EQ(last_watts, 10.0);
}

TEST(OnlineMonitorTest, IntegratesMeasuredEnergy) {
  Rig rig;
  OnlineMonitor monitor(&rig.sim, &rig.machine, rig.Noiseless(), 1);
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  // Constant 10 W for 10 s; the rectangle rule is exact for constant power.
  EXPECT_NEAR(monitor.measured_joules(), 100.0, 1.5);
}

TEST(OnlineMonitorTest, CallbackDelivered) {
  Rig rig;
  OnlineMonitor monitor(&rig.sim, &rig.machine, rig.Noiseless(), 1);
  int calls = 0;
  double last = 0.0;
  monitor.set_callback([&](odsim::SimTime, double watts) {
    ++calls;
    last = watts;
  });
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  EXPECT_EQ(calls, 11);  // t=0 plus 10 at 100 ms.
  EXPECT_DOUBLE_EQ(last, 10.0);
}

TEST(OnlineMonitorTest, StopFreezesIntegration) {
  Rig rig;
  OnlineMonitor monitor(&rig.sim, &rig.machine, rig.Noiseless(), 1);
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  monitor.Stop();
  double frozen = monitor.measured_joules();
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_DOUBLE_EQ(monitor.measured_joules(), frozen);
}

// Trailing integration is exact at sample boundaries: after exactly N
// periods, energy is watts * N * period.  The old forward-charging scheme
// counted N+1 full periods here (the first sample charged a period that
// had not elapsed yet).
TEST(OnlineMonitorTest, FirstSampleChargesNoEnergy) {
  Rig rig;
  OnlineMonitor monitor(&rig.sim, &rig.machine, rig.Noiseless(), 1);
  monitor.Start();
  EXPECT_DOUBLE_EQ(monitor.measured_joules(), 0.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  // Samples at 0, 0.1, ..., 1.0: ten elapsed 100 ms intervals at 10 W.
  EXPECT_DOUBLE_EQ(monitor.measured_joules(), 10.0);
}

TEST(OnlineMonitorTest, StopMidPeriodChargesOnlyElapsedTime) {
  Rig rig;
  OnlineMonitor monitor(&rig.sim, &rig.machine, rig.Noiseless(), 1);
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Millis(250));
  monitor.Stop();
  // Two whole intervals plus the 50 ms tail since the t=200 ms sample —
  // exactly the 250 ms that elapsed, at 10 W.
  EXPECT_DOUBLE_EQ(monitor.measured_joules(), 2.5);
  double frozen = monitor.measured_joules();
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_DOUBLE_EQ(monitor.measured_joules(), frozen);
}

TEST(OnlineMonitorTest, NoiseDoesNotBiasIntegration) {
  Rig rig;
  OnlineMonitorConfig config;
  config.noise_watts = 0.5;
  OnlineMonitor monitor(&rig.sim, &rig.machine, config, 42);
  monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(100));
  // Zero-mean noise: the integral converges to the true 1000 J.
  EXPECT_NEAR(monitor.measured_joules(), 1000.0, 10.0);
}

}  // namespace
}  // namespace odscope
