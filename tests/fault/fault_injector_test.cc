#include "src/fault/fault_injector.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/net/rpc.h"
#include "src/power/thinkpad560x.h"
#include "src/powerscope/online_monitor.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"

namespace odfault {
namespace {

FaultPlan Plan(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << error;
  return plan;
}

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  odnet::RpcClient rpc{&sim, &link, &laptop->power_manager(), 7};
  odserve::SharedService server{&sim, "test-server"};
  odscope::OnlineMonitor monitor{&sim, &laptop->machine(),
                                 odscope::OnlineMonitorConfig{}, 1};

  FaultInjector MakeInjector() {
    FaultTargets targets;
    targets.link = &link;
    targets.rpc = &rpc;
    targets.pm = &laptop->power_manager();
    targets.servers.push_back(&server);
    targets.monitor = &monitor;
    return FaultInjector(&sim, std::move(targets));
  }

  void RunUntil(double seconds) {
    sim.RunUntil(odsim::SimTime::Seconds(seconds));
  }
};

TEST(FaultInjectorTest, OutageWindowTogglesTheLink) {
  Rig rig;
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(Plan("outage@10+5"));

  rig.RunUntil(9.0);
  EXPECT_FALSE(rig.link.outage());
  EXPECT_EQ(injector.active_windows(), 0);
  rig.RunUntil(12.0);
  EXPECT_TRUE(rig.link.outage());
  EXPECT_EQ(injector.active_windows(), 1);
  rig.RunUntil(16.0);
  EXPECT_FALSE(rig.link.outage());
  EXPECT_EQ(injector.active_windows(), 0);
  EXPECT_EQ(injector.windows_begun(), 1);
}

TEST(FaultInjectorTest, BandwidthCrashScalesAndRestoresNominal) {
  Rig rig;
  const double nominal = rig.link.bandwidth_bps();
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(Plan("bandwidth@5+10=0.1"));

  rig.RunUntil(6.0);
  EXPECT_DOUBLE_EQ(rig.link.bandwidth_bps(), nominal * 0.1);
  rig.RunUntil(20.0);
  EXPECT_DOUBLE_EQ(rig.link.bandwidth_bps(), nominal);
}

TEST(FaultInjectorTest, LossBurstScalesAndRestoresProbability) {
  Rig rig;
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(Plan("loss@5+10=0.4"));

  rig.RunUntil(6.0);
  EXPECT_DOUBLE_EQ(rig.rpc.config().loss_probability, 0.4);
  rig.RunUntil(20.0);
  EXPECT_DOUBLE_EQ(rig.rpc.config().loss_probability, 0.0);
}

TEST(FaultInjectorTest, StallAndDiskWindowsApplyAndRevert) {
  Rig rig;
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(Plan("stall@5+10;disk@5+10=8"));

  rig.RunUntil(6.0);
  // A request submitted inside the stall waits for the window to close.
  odsim::SimTime served;
  rig.server.Submit(rig.server.OpenSession("client"),
                    odsim::SimDuration::Seconds(1),
                    [&] { served = rig.sim.Now(); });
  EXPECT_DOUBLE_EQ(rig.laptop->power_manager().disk_latency_scale(), 8.0);
  rig.RunUntil(14.0);
  EXPECT_EQ(served, odsim::SimTime::Zero());
  rig.RunUntil(20.0);
  EXPECT_EQ(served, odsim::SimTime::Seconds(16));
  EXPECT_DOUBLE_EQ(rig.laptop->power_manager().disk_latency_scale(), 1.0);
}

TEST(FaultInjectorTest, NestedWindowsRestoreNominalOnlyAtLastEnd) {
  Rig rig;
  const double nominal = rig.link.bandwidth_bps();
  FaultInjector injector = rig.MakeInjector();
  // Second window opens inside the first with a deeper crash; the first
  // window's end must not restore nominal while the second is still open.
  injector.Arm(Plan("bandwidth@5+10=0.5;bandwidth@8+12=0.1"));

  rig.RunUntil(6.0);
  EXPECT_DOUBLE_EQ(rig.link.bandwidth_bps(), nominal * 0.5);
  rig.RunUntil(9.0);
  EXPECT_DOUBLE_EQ(rig.link.bandwidth_bps(), nominal * 0.1);
  EXPECT_EQ(injector.active_windows(), 2);
  rig.RunUntil(16.0);  // First window closed, second still open.
  EXPECT_EQ(injector.active_windows(), 1);
  EXPECT_NE(rig.link.bandwidth_bps(), nominal);
  rig.RunUntil(21.0);
  EXPECT_DOUBLE_EQ(rig.link.bandwidth_bps(), nominal);
  EXPECT_EQ(injector.windows_begun(), 2);
}

TEST(FaultInjectorTest, TelemetryWindowsToggleTheSwitchboard) {
  Rig rig;
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(Plan("dropout@5+5;nan@12+5;stale@20+5;gauge@28+5=2.5"));
  odscope::TelemetryFaults* faults = rig.monitor.telemetry_faults();

  rig.RunUntil(4.0);
  EXPECT_FALSE(faults->any_active());
  rig.RunUntil(6.0);
  EXPECT_FALSE(faults->Corrupt(9.8, 9.8, true).has_value());  // Dropout on.
  rig.RunUntil(13.0);
  EXPECT_TRUE(std::isnan(*faults->Corrupt(9.8, 9.7, true)));  // NaN on.
  rig.RunUntil(21.0);
  EXPECT_DOUBLE_EQ(*faults->Corrupt(9.8, 9.7, true), 9.7);    // Stale on.
  rig.RunUntil(29.0);
  EXPECT_DOUBLE_EQ(*faults->Corrupt(9.8, 9.7, true), 24.5);   // Gauge x2.5.
  rig.RunUntil(40.0);
  EXPECT_FALSE(faults->any_active());  // Every window closed and restored.
  EXPECT_EQ(injector.windows_begun(), 4);
}

TEST(FaultInjectorTest, RampInterpolatesGaugeScaleAndRestores) {
  Rig rig;
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(Plan("ramp@10+20=2"));
  odscope::TelemetryFaults* faults = rig.monitor.telemetry_faults();

  rig.RunUntil(9.0);
  EXPECT_DOUBLE_EQ(faults->gauge_scale(), 1.0);
  // The ramp starts at nominal and interpolates linearly at 1 s ticks:
  // halfway through the window the scale is halfway to the endpoint.
  rig.RunUntil(20.5);
  EXPECT_NEAR(faults->gauge_scale(), 1.5, 1e-12);
  rig.RunUntil(29.5);
  EXPECT_NEAR(faults->gauge_scale(), 1.95, 1e-12);
  // Window end: the scale snaps back to nominal, whatever the tick order.
  rig.RunUntil(31.0);
  EXPECT_DOUBLE_EQ(faults->gauge_scale(), 1.0);
  EXPECT_EQ(injector.active_windows(), 0);
}

TEST(FaultInjectorTest, EmptyPlanIsANoop) {
  Rig rig;
  FaultInjector injector = rig.MakeInjector();
  injector.Arm(FaultPlan{});
  rig.RunUntil(5.0);
  EXPECT_EQ(injector.windows_begun(), 0);
  EXPECT_EQ(injector.active_windows(), 0);
}

TEST(FaultInjectorDeathTest, ArmRejectsPlanWithoutItsTarget) {
  odsim::Simulator sim;
  FaultInjector injector(&sim, FaultTargets{});  // No link target.
  EXPECT_DEATH(injector.Arm(Plan("outage@1+1")), "OD_CHECK failed");
}

TEST(FaultInjectorDeathTest, ArmRejectsTelemetryPlanWithoutMonitor) {
  odsim::Simulator sim;
  FaultInjector injector(&sim, FaultTargets{});  // No monitor target.
  EXPECT_DEATH(injector.Arm(Plan("dropout@1+1")), "OD_CHECK failed");
}

}  // namespace
}  // namespace odfault
