#include "src/power/supply.h"

#include <gtest/gtest.h>

#include "src/power/cpu.h"
#include "src/power/machine.h"
#include "src/sim/simulator.h"

namespace odpower {
namespace {

struct Rig {
  odsim::Simulator sim;
  Machine machine{&sim, 0.0};
  OtherComponent* other =
      machine.AddComponent(std::make_unique<OtherComponent>(10.0));
  EnergyAccounting accounting{&machine};
};

TEST(SupplyTest, ResidualDrainsWithConsumption) {
  Rig rig;
  EnergySupply supply(&rig.accounting, 100.0);
  EXPECT_DOUBLE_EQ(supply.ResidualJoules(rig.sim.Now()), 100.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_NEAR(supply.ResidualJoules(rig.sim.Now()), 50.0, 1e-9);
}

TEST(SupplyTest, ClampsAtZero) {
  Rig rig;
  EnergySupply supply(&rig.accounting, 100.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  EXPECT_DOUBLE_EQ(supply.ResidualJoules(rig.sim.Now()), 0.0);
  EXPECT_TRUE(supply.Exhausted(rig.sim.Now()));
}

TEST(SupplyTest, AnchorsAtCreationTime) {
  Rig rig;
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));  // 50 J consumed before.
  EnergySupply supply(&rig.accounting, 100.0);
  EXPECT_DOUBLE_EQ(supply.ResidualJoules(rig.sim.Now()), 100.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_NEAR(supply.ResidualJoules(rig.sim.Now()), 50.0, 1e-9);
}

}  // namespace
}  // namespace odpower
