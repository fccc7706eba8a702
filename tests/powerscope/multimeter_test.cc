#include "src/powerscope/multimeter.h"

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
      machine.AddComponent(std::make_unique<odpower::OtherComponent>(12.0));
};

TEST(MultimeterTest, SamplesAtConfiguredRate) {
  Rig rig;
  MultimeterConfig config;
  config.noise_amps = 0.0;
  Multimeter meter(&rig.sim, &rig.machine, config, 1);
  meter.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  meter.Stop();
  // One sample at t=0, then one every 1667 us (600 Hz rounded to the
  // simulator's microsecond clock): 600 samples in [0, 1].
  EXPECT_EQ(meter.samples().size(), 600u);
}

TEST(MultimeterTest, NoiselessSamplesMatchPowerOverVoltage) {
  Rig rig;
  MultimeterConfig config;
  config.noise_amps = 0.0;
  Multimeter meter(&rig.sim, &rig.machine, config, 1);
  meter.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(0.1));
  for (const CurrentSample& s : meter.samples()) {
    EXPECT_DOUBLE_EQ(s.amps, 1.0);  // 12 W / 12 V.
  }
}

TEST(MultimeterTest, NoiseIsDeterministicPerSeed) {
  Rig rig1, rig2;
  MultimeterConfig config;
  Multimeter a(&rig1.sim, &rig1.machine, config, 99);
  Multimeter b(&rig2.sim, &rig2.machine, config, 99);
  a.Start();
  b.Start();
  rig1.sim.RunUntil(odsim::SimTime::Seconds(0.05));
  rig2.sim.RunUntil(odsim::SimTime::Seconds(0.05));
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples()[i].amps, b.samples()[i].amps);
  }
}

TEST(MultimeterTest, TriggerFiresPerSample) {
  Rig rig;
  Multimeter meter(&rig.sim, &rig.machine, MultimeterConfig{}, 1);
  int triggers = 0;
  meter.set_trigger([&](odsim::SimTime) { ++triggers; });
  meter.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(0.1));
  meter.Stop();
  EXPECT_EQ(static_cast<size_t>(triggers), meter.samples().size());
}

TEST(MultimeterTest, StopHaltsSampling) {
  Rig rig;
  Multimeter meter(&rig.sim, &rig.machine, MultimeterConfig{}, 1);
  meter.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(0.05));
  meter.Stop();
  size_t count = meter.samples().size();
  rig.sim.RunUntil(odsim::SimTime::Seconds(0.2));
  EXPECT_EQ(meter.samples().size(), count);
}

}  // namespace
}  // namespace odscope
