// Concurrent disk requests queue FIFO instead of faulting.

#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odpower {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<Laptop> laptop = MakeThinkPad560X(&sim);
  PowerManager& pm() { return laptop->power_manager(); }
};

TEST(DiskQueueTest, ConcurrentAccessesServedInOrder) {
  Rig rig;
  std::vector<int> order;
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back(1); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back(2); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), [&] { order.push_back(3); });
  EXPECT_TRUE(order.empty());  // All three wait for the disk.
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DiskQueueTest, QueuedAccessesRunBackToBack) {
  Rig rig;
  odsim::SimTime first_done, second_done;
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1),
                      [&] { first_done = rig.sim.Now(); });
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(2),
                      [&] { second_done = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(first_done, odsim::SimTime::Seconds(1));
  EXPECT_EQ(second_done, odsim::SimTime::Seconds(3));
}

TEST(DiskQueueTest, StandbyTimerArmsOnlyAfterQueueDrains) {
  Rig rig;
  rig.pm().SetHardwarePmEnabled(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  ASSERT_EQ(rig.laptop->disk().disk_state(), DiskState::kStandby);

  // Two queued accesses: spin-up (1.5 s) + 1 s + 1 s, ending at 23.5 s.
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), nullptr);
  rig.pm().AccessDisk(odsim::SimDuration::Seconds(1), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(30));
  EXPECT_EQ(rig.laptop->disk().disk_state(), DiskState::kIdle);
  // Standby 10 s after the last access completes.
  rig.sim.RunUntil(odsim::SimTime::Seconds(34));
  EXPECT_EQ(rig.laptop->disk().disk_state(), DiskState::kStandby);
}

}  // namespace
}  // namespace odpower
