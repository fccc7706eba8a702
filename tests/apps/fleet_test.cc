#include "src/apps/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/scenario/library.h"

namespace odapps {
namespace {

odfault::FaultPlan Plan(const std::string& spec) {
  odfault::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(odfault::FaultPlan::Parse(spec, &plan, &error)) << error;
  return plan;
}

// A small fleet saturating a deliberately slow service: rejects, batching,
// cache hits, an overload clamp, and a mid-run stall all in one pot.  The
// 1 Hz probe checks that fleet-scale accounting stays honest per device:
// supply residual plus consumed energy equals the initial budget, and the
// per-component energies (plus synergy) sum to the device total.  One
// shared event loop must not let devices bleed energy into each other.
TEST(FleetScenarioTest, ChaosSoakConservesPerDeviceEnergy) {
  FleetOptions options;
  options.clients = 6;
  options.seed = 7;
  options.goal = odsim::SimDuration::Seconds(120);
  options.service.speed_factor = 0.05;
  options.service.max_queue = 3;
  options.service.cache_capacity = 4;
  options.fault_plan = Plan("stall@30+20");

  int probes = 0;
  double max_supply_error = 0.0;
  double max_component_error = 0.0;
  options.device_probe = [&](int, odsim::SimTime now, odpower::Laptop& laptop,
                             odpower::EnergySupply& supply) {
    ++probes;
    double total = laptop.accounting().TotalJoules(now);
    // The supply clamps at empty, so past exhaustion the expected residual
    // is zero while the accountant keeps metering the (still powered-on)
    // device.
    double expected_residual = std::max(0.0, supply.initial_joules() - total);
    max_supply_error = std::max(
        max_supply_error,
        std::fabs(supply.ResidualJoules(now) - expected_residual));
    double parts = laptop.accounting().SynergyJoules(now);
    for (int c = 0; c < laptop.machine().component_count(); ++c) {
      parts += laptop.accounting().ComponentJoules(c, now);
    }
    max_component_error =
        std::max(max_component_error, std::fabs(parts - total));
  };

  FleetResult result = RunFleetScenario(options);

  EXPECT_GE(probes, options.clients * 100);
  EXPECT_LT(max_supply_error, 1e-6);
  EXPECT_LT(max_component_error, 1e-6);

  // The pot actually boiled: contention and the stall left visible marks.
  EXPECT_GT(result.total_fetches, 0);
  EXPECT_GT(result.server_batch_joins, 0);
  EXPECT_GT(result.server_cache_hits, 0);
  EXPECT_GT(result.total_rejected_fetches, 0);
}

TEST(FleetScenarioTest, SameSeedReproducesExactly) {
  FleetOptions options;
  options.clients = 4;
  options.seed = 11;
  options.goal = odsim::SimDuration::Seconds(60);
  options.service.cache_capacity = 32;

  FleetResult a = RunFleetScenario(options);
  FleetResult b = RunFleetScenario(options);
  EXPECT_EQ(a.goal_met_count, b.goal_met_count);
  EXPECT_EQ(a.total_fetches, b.total_fetches);
  EXPECT_EQ(a.server_completed, b.server_completed);
  EXPECT_EQ(a.server_cache_hits, b.server_cache_hits);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.devices[i].consumed_joules, b.devices[i].consumed_joules);
    EXPECT_EQ(a.devices[i].fetches, b.devices[i].fetches);
  }
}

// The events contract.  Monitor samples, director evaluations and the
// 1 Hz probe are periodic-tick subscribers: all 50 monitors share one tick
// event, as do the directors, so the event count drops while every call
// keeps its order.  Probes, fetches, cache hits and residuals were recorded
// with one self-re-arming event per timer; residuals are held to the
// golden gate's 1e-9 tolerance.
TEST(FleetScenarioTest, PeriodicTicksKeepTheEventsContract) {
  FleetOptions options;
  options.clients = 50;
  options.seed = 14;
  options.goal = odsim::SimDuration::Seconds(60);
  options.service.cache_capacity = 64;
  int probes = 0;
  options.device_probe = [&](int, odsim::SimTime, odpower::Laptop&,
                             odpower::EnergySupply&) { ++probes; };

  FleetResult result = RunFleetScenario(options);

  EXPECT_EQ(result.events_processed, 2511u);
  EXPECT_EQ(probes, 3100);
  EXPECT_EQ(result.goal_met_count, 50);
  EXPECT_EQ(result.total_fetches, 602);
  EXPECT_EQ(result.server_cache_hits, 149);
  const std::vector<double> residuals = {
      2.6611358299998926, 2.4051540599998589, 2.7038346399998829,
      2.6922846399998832, 2.6919481499998881, 2.4213856599999133,
      2.427882919999945, 2.3964045499998861, 2.738484639999939,
      2.3752742099999296, 2.7250227299998642, 2.4229333599998313,
      2.6807346399999119, 2.715058929999941, 2.726934639999854,
      2.6837468799999158, 2.6887380199999029, 2.6608078099999091,
      2.7153846399999395, 2.6691846399998838, 2.6922846399999401,
      2.7325918299998193, 2.6961107699999047, 2.7153846399999111,
      2.688734939999847, 2.7038346399999114, 2.6955201799999031,
      2.7038346399998829, 2.7038346399998261, 2.6763795199998697,
      2.6922846399999116, 2.7172680599998955, 2.6959228899998777,
      2.6820151499998701, 2.6612759699998492, 2.7038346399999398,
      2.6839855799998986, 3.0006279499998243, 2.7153846399998827,
      2.7087795799998844, 2.7038346399999114, 2.7269346399998824,
      2.7120428399999241, 2.6739008899998566, 2.6934157699999162,
      2.6922846399998832, 2.9464807799998596, 2.7269346399999108,
      2.9586529399998938, 2.9684434899998564};
  ASSERT_EQ(result.devices.size(), residuals.size());
  for (size_t i = 0; i < residuals.size(); ++i) {
    EXPECT_NEAR(result.devices[i].residual_joules, residuals[i],
                1e-9 * residuals[i])
        << "device " << i;
  }
}

// Scenario diversity assigns each device a behavior timeline from the
// named library by seed-indexed rotation and gates its fetch loop on it.
// With one device per library entry, the commuter's tunnel (a coverage
// gap) and the coffee shop's weak-signal dip must suppress fetch ticks,
// while the always-active behaviors (background_sync, video_evening) skip
// nothing — so skip counts differ across the fleet.
TEST(FleetScenarioTest, ScenarioDiversityGatesFetchLoopsPerDevice) {
  const size_t library_size = odscenario::ScenarioLibrary().size();
  FleetOptions options;
  options.clients = static_cast<int>(library_size);
  options.seed = 3;
  options.goal = odsim::SimDuration::Seconds(600);
  options.scenario_diversity = true;

  FleetResult result = RunFleetScenario(options);

  EXPECT_GT(result.total_fetches, 0);
  EXPECT_GT(result.total_scenario_skipped_ticks, 0);
  int devices_with_skips = 0;
  int devices_without_skips = 0;
  for (const FleetDeviceResult& device : result.devices) {
    (device.scenario_skipped_ticks > 0 ? devices_with_skips
                                       : devices_without_skips)++;
  }
  EXPECT_GT(devices_with_skips, 0);
  EXPECT_GT(devices_without_skips, 0);
}

TEST(FleetScenarioTest, ScenarioDiversityReproducesExactly) {
  FleetOptions options;
  options.clients = 8;  // Wraps past the library: assignment is modular.
  options.seed = 5;
  options.goal = odsim::SimDuration::Seconds(300);
  options.scenario_diversity = true;

  FleetResult a = RunFleetScenario(options);
  FleetResult b = RunFleetScenario(options);
  EXPECT_EQ(a.total_fetches, b.total_fetches);
  EXPECT_EQ(a.total_scenario_skipped_ticks, b.total_scenario_skipped_ticks);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (size_t i = 0; i < a.devices.size(); ++i) {
    EXPECT_EQ(a.devices[i].fetches, b.devices[i].fetches);
    EXPECT_EQ(a.devices[i].scenario_skipped_ticks,
              b.devices[i].scenario_skipped_ticks);
    EXPECT_DOUBLE_EQ(a.devices[i].consumed_joules,
                     b.devices[i].consumed_joules);
  }
}

TEST(FleetScenarioTest, ScenarioDiversityOffLeavesTheFleetUnchanged) {
  // The flag must be strictly additive: a default-constructed fleet and an
  // explicit scenario_diversity=false fleet are the same program, and
  // neither records a skipped tick.
  FleetOptions options;
  options.clients = 3;
  options.seed = 11;
  options.goal = odsim::SimDuration::Seconds(60);

  FleetResult off = RunFleetScenario(options);
  EXPECT_EQ(off.total_scenario_skipped_ticks, 0);
  for (const FleetDeviceResult& device : off.devices) {
    EXPECT_EQ(device.scenario_skipped_ticks, 0);
  }
}

}  // namespace
}  // namespace odapps
