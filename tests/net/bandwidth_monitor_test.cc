#include "src/net/bandwidth_monitor.h"

#include <gtest/gtest.h>

#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odnet {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  Link link{&sim, &laptop->power_manager(), LinkConfig{}};
  BandwidthMonitor monitor{&sim, &link};

  // Issues back-to-back transfers for `seconds`.
  void Saturate(double seconds) {
    auto* self = this;
    odsim::SimTime end = sim.Now() + odsim::SimDuration::Seconds(seconds);
    StartTransfer(self, end);
  }

  static void StartTransfer(Rig* rig, odsim::SimTime end) {
    if (rig->sim.Now() >= end) {
      return;
    }
    rig->link.Transfer(Direction::kReceive, 25000,
                       [rig, end] { StartTransfer(rig, end); });
  }
};

TEST(BandwidthMonitorTest, IdleLinkReportsCapacity) {
  Rig rig;
  rig.monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_DOUBLE_EQ(rig.monitor.EstimatedBps(), 2.0e6);
}

TEST(BandwidthMonitorTest, SaturatedLinkReportsThroughput) {
  Rig rig;
  rig.monitor.Start();
  rig.Saturate(10.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  // Observed throughput is slightly below capacity (setup latency per
  // transfer), but in the right regime.
  EXPECT_GT(rig.monitor.EstimatedBps(), 1.6e6);
  EXPECT_LT(rig.monitor.EstimatedBps(), 2.0e6);
}

TEST(BandwidthMonitorTest, TracksBandwidthDrop) {
  Rig rig;
  rig.monitor.Start();
  rig.Saturate(20.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(8));
  double before = rig.monitor.EstimatedBps();
  rig.link.set_bandwidth_bps(0.5e6);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  double after = rig.monitor.EstimatedBps();
  EXPECT_LT(after, 0.5 * before);
  EXPECT_GT(after, 0.3e6);
  EXPECT_LT(after, 0.6e6);
}

TEST(BandwidthMonitorTest, CallbackFiresPeriodically) {
  Rig rig;
  int calls = 0;
  rig.monitor.set_callback([&](odsim::SimTime, double) { ++calls; });
  rig.monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_EQ(calls, 5);
}

TEST(BandwidthMonitorTest, WindowForgetsOldActivity) {
  Rig rig;
  rig.monitor.Start();
  rig.Saturate(3.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  EXPECT_LT(rig.monitor.EstimatedBps(), 2.0e6);
  // After the 5 s window drains with no traffic, capacity is reported again.
  rig.sim.RunUntil(odsim::SimTime::Seconds(15));
  EXPECT_DOUBLE_EQ(rig.monitor.EstimatedBps(), 2.0e6);
}

TEST(BandwidthMonitorTest, StopHaltsEstimation) {
  Rig rig;
  int calls = 0;
  rig.monitor.set_callback([&](odsim::SimTime, double) { ++calls; });
  rig.monitor.Start();
  rig.sim.RunUntil(odsim::SimTime::Seconds(2));
  rig.monitor.Stop();
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(calls, 2);
}

TEST(LinkBandwidthTest, SetBandwidthAffectsNewTransfers) {
  Rig rig;
  rig.link.set_bandwidth_bps(1.0e6);
  odsim::SimTime done_at;
  rig.link.Transfer(Direction::kReceive, 125000, [&] { done_at = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  // 125,000 B at 1 Mb/s = 1 s + 5 ms setup.
  EXPECT_EQ(done_at, odsim::SimTime::Seconds(1.005));
}

}  // namespace
}  // namespace odnet
