#include "src/net/rpc.h"

#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odnet {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  Link link{&sim, &laptop->power_manager(), LinkConfig{}};
  RpcClient rpc{&sim, &link, &laptop->power_manager()};
};

TEST(RpcTest, CallCompletesAfterAllPhases) {
  Rig rig;
  odsim::SimTime done_at;
  // Request: 25,000 B = 0.1 s + 5 ms; server: 2 s; reply: 25,000 B.
  rig.rpc.Call(25000, 25000, odsim::SimDuration::Seconds(2),
               [&] { done_at = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_EQ(done_at, odsim::SimTime::Seconds(0.105 + 2.0 + 0.105));
}

TEST(RpcTest, InterfaceHeldAwakeWhileServerComputes) {
  Rig rig;
  rig.laptop->power_manager().SetHardwarePmEnabled(true);
  rig.rpc.Call(25000, 25000, odsim::SimDuration::Seconds(2), nullptr);
  // Mid server computation: not in standby — the client is listening.
  rig.sim.RunUntil(odsim::SimTime::Seconds(1.0));
  EXPECT_NE(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
  // After the reply: back to standby.
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
}

TEST(RpcTest, ClientIdlesDuringServerTime) {
  Rig rig;
  rig.rpc.Call(1000, 1000, odsim::SimDuration::Seconds(2), nullptr);
  rig.sim.RunUntil(odsim::SimTime::Seconds(1.0));
  EXPECT_EQ(rig.sim.current_pid(), odsim::kIdlePid);
}

TEST(RpcTest, ZeroServerTime) {
  Rig rig;
  bool done = false;
  rig.rpc.Call(1000, 1000, odsim::SimDuration::Zero(), [&] { done = true; });
  rig.sim.RunUntil(odsim::SimTime::Seconds(1));
  EXPECT_TRUE(done);
}

TEST(RpcTest, SequentialCalls) {
  Rig rig;
  int completed = 0;
  rig.rpc.Call(1000, 1000, odsim::SimDuration::Seconds(1), [&] {
    ++completed;
    rig.rpc.Call(1000, 1000, odsim::SimDuration::Seconds(1),
                 [&] { ++completed; });
  });
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(completed, 2);
}

}  // namespace
}  // namespace odnet
