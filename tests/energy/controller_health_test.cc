// Controller health state machine: the director's telemetry-fault defenses
// (DESIGN.md §7).  Corruption is injected straight at the monitor's
// TelemetryFaults switchboard, below the director, so these tests exercise
// exactly what a disturbance plan exercises without the scenario layer.

#include "src/energy/goal_director.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/power/thinkpad560x.h"
#include "src/powerscope/online_monitor.h"
#include "src/sim/simulator.h"

namespace odenergy {
namespace {

class FakeApp : public odyssey::AdaptiveApplication {
 public:
  FakeApp(std::string name, int priority)
      : name_(std::move(name)),
        priority_(priority),
        spec_({"L0", "L1", "L2"}),
        fidelity_(spec_.highest()) {}

  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override { fidelity_ = level; }

  void Force(int level) { fidelity_ = level; }

 private:
  std::string name_;
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
};

// The idle laptop draws ~9.8 W; samples arrive every 100 ms.
struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  odyssey::Viceroy viceroy{&sim, &link, &laptop->power_manager()};
  FakeApp low{"low", 0};
  FakeApp high{"high", 10};
  odscope::OnlineMonitor monitor{&sim, &laptop->machine(),
                                 [] {
                                   odscope::OnlineMonitorConfig c;
                                   c.noise_watts = 0.0;
                                   return c;
                                 }(),
                                 1};

  Rig() {
    viceroy.RegisterApplication(&low);
    viceroy.RegisterApplication(&high);
  }
};

TEST(ControllerHealthTest, CleanFeedStaysHealthy) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  EXPECT_EQ(director.telemetry().safe_mode_entries(), 0);
  EXPECT_EQ(director.telemetry().invalid_samples(), 0);
  EXPECT_EQ(director.telemetry().telemetry_gaps(), 0);
  EXPECT_DOUBLE_EQ(director.telemetry().debit_joules(), 0.0);
  EXPECT_DOUBLE_EQ(
      director.telemetry().SafeModeSeconds(odsim::SimTime::Seconds(20)), 0.0);
  director.Stop();
}

TEST(ControllerHealthTest, NanSamplesTripSafeModeAndClampFidelity) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  ASSERT_EQ(rig.high.current_fidelity(), rig.high.fidelity_spec().highest());

  rig.monitor.telemetry_faults()->set_nan(true);
  // TelemetryGuard::kInvalidSampleLimit = 3, one sample per 100 ms: safe mode
  // within half a second of the corruption starting.
  rig.sim.RunUntil(odsim::SimTime::Seconds(7));
  EXPECT_EQ(director.health(), ControllerHealth::kSafeMode);
  EXPECT_EQ(director.telemetry().safe_mode_entries(), 1);
  EXPECT_GE(director.telemetry().invalid_samples(), 3);
  // The energy-conserving fallback: everything at cheapest fidelity.
  EXPECT_EQ(rig.low.current_fidelity(), 0);
  EXPECT_EQ(rig.high.current_fidelity(), 0);
  EXPECT_GT(director.telemetry().SafeModeSeconds(odsim::SimTime::Seconds(7)), 0.0);
  director.Stop();
}

TEST(ControllerHealthTest, SafeModeFreezesPlanningDespiteSurplus) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  rig.monitor.telemetry_faults()->set_nan(true);
  // A huge surplus would normally drive upgrades; in safe mode the clamp
  // holds every application at the floor for as long as the fault lasts.
  rig.sim.RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_EQ(director.health(), ControllerHealth::kSafeMode);
  EXPECT_EQ(rig.low.current_fidelity(), 0);
  EXPECT_EQ(rig.high.current_fidelity(), 0);
  EXPECT_EQ(director.telemetry().safe_mode_entries(), 1);  // One episode, not many.
  director.Stop();
}

TEST(ControllerHealthTest, RecoveryHysteresisRestoresFidelity) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  rig.monitor.telemetry_faults()->set_nan(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  ASSERT_EQ(director.health(), ControllerHealth::kSafeMode);

  rig.monitor.telemetry_faults()->set_nan(false);
  // TelemetryGuard::kRecoverySamples = 8 -> ~0.8 s of valid readings before
  // the clamp lifts and the pre-fault fidelities return.
  rig.sim.RunUntil(odsim::SimTime::Seconds(10.3));
  EXPECT_EQ(director.health(), ControllerHealth::kSafeMode);  // Not yet.
  rig.sim.RunUntil(odsim::SimTime::Seconds(15));
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  EXPECT_EQ(rig.low.current_fidelity(), rig.low.fidelity_spec().highest());
  EXPECT_EQ(rig.high.current_fidelity(), rig.high.fidelity_spec().highest());
  // The episode is closed: safe-mode time stops accruing.
  double at_recovery = director.telemetry().SafeModeSeconds(odsim::SimTime::Seconds(15));
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  EXPECT_DOUBLE_EQ(director.telemetry().SafeModeSeconds(odsim::SimTime::Seconds(20)),
                   at_recovery);
  director.Stop();
}

TEST(ControllerHealthTest, DropoutGapTripsTheWatchdogAndIsBridged) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));

  rig.monitor.telemetry_faults()->set_dropout(true);
  // No samples at all: the silence watchdog, checked at each evaluation
  // (TelemetryGuard::kTimeoutPeriods = 4 sampling periods = 0.4 s), must
  // trip safe mode even though no sample ever arrives.
  rig.sim.RunUntil(odsim::SimTime::Seconds(12));
  EXPECT_EQ(director.health(), ControllerHealth::kSafeMode);

  rig.monitor.telemetry_faults()->set_dropout(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  EXPECT_GE(director.telemetry().telemetry_gaps(), 1);
  // The monitor integrated nothing during the outage; the debit bridges
  // the missing ~9.8 W so the residual estimate tracks the truth.
  EXPECT_GT(director.telemetry().debit_joules(), 0.0);
  double truth = supply.ResidualJoules(odsim::SimTime::Seconds(20));
  EXPECT_NEAR(director.EstimatedResidualJoules(), truth, 0.02 * 1.0e4);
  director.Stop();
}

TEST(ControllerHealthTest, GaugeDriftIsRejectedAndReCounted) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));

  // 3x gauge drift reads the ~9.8 W laptop as ~29 W — beyond
  // TelemetryGuard::kMaxPlausibleWatts, so every reading is rejected as
  // implausible.
  rig.monitor.telemetry_faults()->set_gauge_scale(3.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(40));
  EXPECT_EQ(director.health(), ControllerHealth::kSafeMode);
  EXPECT_GT(director.telemetry().invalid_samples(), 0);

  rig.monitor.telemetry_faults()->set_gauge_scale(1.0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(50));
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  // The monitor integrated the inflated readings (~3x actual); the debit
  // re-counts that span at the smoothed rate.  Without the correction the
  // estimate would be off by ~2 * 9.8 W * 30 s = ~590 J; with it the error
  // must stay a small fraction of that.
  double truth = supply.ResidualJoules(odsim::SimTime::Seconds(50));
  EXPECT_NE(director.telemetry().debit_joules(), 0.0);
  EXPECT_NEAR(director.EstimatedResidualJoules(), truth, 150.0);
  director.Stop();
}

TEST(ControllerHealthTest, FrozenFeedDetectedByStaleLimit) {
  // Stale detection needs a noisy source (a noiseless feed legitimately
  // repeats values), so this test builds its own monitor instead of the
  // rig's noiseless one — matching how the goal scenario configures the
  // multimeter under a disturbance plan.
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  odyssey::Viceroy viceroy{&sim, &link, &laptop->power_manager()};
  FakeApp low{"low", 0};
  FakeApp high{"high", 10};
  viceroy.RegisterApplication(&low);
  viceroy.RegisterApplication(&high);
  odscope::OnlineMonitorConfig monitor_config;
  monitor_config.noise_watts = 0.05;
  odscope::OnlineMonitor monitor(&sim, &laptop->machine(), monitor_config, 1);

  odpower::EnergySupply supply(&laptop->accounting(), 1.0e6);
  GoalDirectorConfig config;
  config.stale_sample_limit = 12;
  GoalDirector director(&viceroy, &supply, &monitor,
                        odsim::SimTime::Seconds(600), config);
  director.Start(false);
  sim.RunUntil(odsim::SimTime::Seconds(10));
  ASSERT_EQ(director.health(), ControllerHealth::kHealthy);

  // A wedged driver repeating its last reading: values stay plausible, so
  // only the frozen-feed detector can catch this.
  monitor.telemetry_faults()->set_stale(true);
  sim.RunUntil(odsim::SimTime::Seconds(15));
  EXPECT_EQ(director.health(), ControllerHealth::kSafeMode);
  EXPECT_GE(director.telemetry().invalid_samples(), 1);

  monitor.telemetry_faults()->set_stale(false);
  sim.RunUntil(odsim::SimTime::Seconds(20));
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  director.Stop();
}

TEST(ControllerHealthTest, TimelineRecordsHealthTransitions) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  rig.monitor.telemetry_faults()->set_nan(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(10));
  rig.monitor.telemetry_faults()->set_nan(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  director.Stop();

  bool saw_healthy = false;
  bool saw_safe_mode = false;
  for (const TimelinePoint& point : director.timeline()) {
    if (point.health == ControllerHealth::kHealthy) saw_healthy = true;
    if (point.health == ControllerHealth::kSafeMode) saw_safe_mode = true;
  }
  EXPECT_TRUE(saw_healthy);
  EXPECT_TRUE(saw_safe_mode);
  // Recovered by the end: the last point is healthy again.
  ASSERT_FALSE(director.timeline().empty());
  EXPECT_EQ(director.timeline().back().health, ControllerHealth::kHealthy);
}

}  // namespace
}  // namespace odenergy
