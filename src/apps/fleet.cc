#include "src/apps/fleet.h"

#include <limits>
#include <memory>
#include <utility>

#include <cmath>

#include "src/fault/fault_injector.h"
#include "src/net/link.h"
#include "src/scenario/library.h"
#include "src/odyssey/viceroy.h"
#include "src/odyssey/warden.h"
#include "src/powerscope/online_monitor.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace odapps {

const std::vector<FleetLevelSpec>& FleetLevels() {
  static const std::vector<FleetLevelSpec> kLevels = {
      {"thumb", 6 * 1024, odsim::SimDuration::Millis(150)},
      {"small", 12 * 1024, odsim::SimDuration::Millis(110)},
      {"medium", 24 * 1024, odsim::SimDuration::Millis(80)},
      {"full", 48 * 1024, odsim::SimDuration::Millis(60)},
  };
  return kLevels;
}

FleetApp::FleetApp(std::string name, int priority)
    : name_(std::move(name)),
      priority_(priority),
      level_(fidelity_spec().highest()) {}

const odyssey::FidelitySpec& FleetApp::fidelity_spec() const {
  static const odyssey::FidelitySpec kSpec([] {
    std::vector<std::string> names;
    for (const FleetLevelSpec& level : FleetLevels()) {
      names.emplace_back(level.name);
    }
    return names;
  }());
  return kSpec;
}

namespace {

// Per-device battery budget when FleetOptions::initial_joules is 0, in
// watts over the goal.
constexpr double kWattsBudget = 3.80;
// Device workload: one keyed fetch of this request size per (jittered)
// period, over this many shared objects.
constexpr odsim::SimDuration kFetchPeriod = odsim::SimDuration::Seconds(5);
constexpr int kSharedObjects = 256;
constexpr size_t kRequestBytes = 256;
// App-level flow control: fetches a device may have outstanding.
constexpr int kMaxOutstanding = 4;

// One fleet device: power model, link, viceroy, app, director.  No CPU work
// is ever submitted on its behalf — the simulator models a single CPU,
// which N devices must not share — and the link's interrupt batching is
// disabled (batch size larger than any transfer) for the same reason.
struct Device {
  std::unique_ptr<odpower::Laptop> laptop;
  std::unique_ptr<odnet::Link> link;
  std::unique_ptr<odyssey::Viceroy> viceroy;
  std::unique_ptr<FleetApp> app;
  odyssey::Warden* warden = nullptr;
  std::unique_ptr<odpower::EnergySupply> supply;
  std::unique_ptr<odscope::OnlineMonitor> monitor;
  std::unique_ptr<odenergy::GoalDirector> director;
  std::unique_ptr<odutil::Rng> rng;  // Workload stream (object choice, jitter).
  // Behavior timeline gating the fetch loop (scenario_diversity); null
  // means always-on.
  const odscenario::Scenario* scenario = nullptr;
  int fetches = 0;
  int outstanding = 0;
  int scenario_skipped_ticks = 0;
};

// Where `elapsed` falls on `scenario`'s timeline, wrapped modulo the
// scenario duration: fleet runs outlive a single behavior day.
odsim::SimDuration ScenarioPhaseTime(const odscenario::Scenario& scenario,
                                     odsim::SimDuration elapsed) {
  const double duration = scenario.Duration().seconds();
  if (duration <= 0.0) {
    return odsim::SimDuration::Zero();
  }
  return odsim::SimDuration::Seconds(std::fmod(elapsed.seconds(), duration));
}

}  // namespace

FleetResult RunFleetScenario(const FleetOptions& options) {
  OD_CHECK(options.clients >= 1);

  odsim::Simulator sim;
  odserve::SharedService service(&sim, "distill", options.service);

  odnet::LinkConfig link_config;
  link_config.interrupt_batch_bytes = std::numeric_limits<size_t>::max();

  double initial_joules = options.initial_joules;
  if (initial_joules <= 0.0) {
    initial_joules = kWattsBudget * options.goal.seconds();
  }

  odutil::Rng seeder(options.seed);
  std::vector<std::unique_ptr<Device>> devices;
  devices.reserve(options.clients);
  for (int i = 0; i < options.clients; ++i) {
    auto d = std::make_unique<Device>();
    d->laptop = odpower::MakeThinkPad560X(&sim);
    d->laptop->power_manager().SetHardwarePmEnabled(true);
    // Fleet devices are headless (the laptop is in the bag): display off.
    d->laptop->display().Set(odpower::DisplayState::kOff);
    d->link = std::make_unique<odnet::Link>(&sim, &d->laptop->power_manager(),
                                            link_config);
    d->viceroy = std::make_unique<odyssey::Viceroy>(
        &sim, d->link.get(), &d->laptop->power_manager());
    d->app = std::make_unique<FleetApp>("Tile-" + std::to_string(i));
    d->viceroy->RegisterApplication(d->app.get());
    d->warden = d->viceroy->RegisterWarden(
        std::make_unique<odyssey::Warden>("distill"), &service);
    uint64_t monitor_seed = seeder.NextU64();
    uint64_t workload_seed = seeder.NextU64();
    d->monitor = std::make_unique<odscope::OnlineMonitor>(
        &sim, &d->laptop->machine(),
        odscope::OnlineMonitorConfig{.period = options.monitor_period},
        monitor_seed);
    d->rng = std::make_unique<odutil::Rng>(workload_seed);
    if (options.scenario_diversity) {
      const std::vector<odscenario::Scenario>& library =
          odscenario::ScenarioLibrary();
      d->scenario = &library[(options.seed + static_cast<uint64_t>(i)) %
                             library.size()];
    }
    devices.push_back(std::move(d));
  }

  // Fault targets: stall windows hit the shared service; device-scoped
  // kinds target device 0.
  std::unique_ptr<odfault::FaultInjector> injector;
  if (!options.fault_plan.empty()) {
    odfault::FaultTargets targets;
    targets.link = devices[0]->link.get();
    targets.rpc = &devices[0]->viceroy->rpc();
    targets.pm = &devices[0]->laptop->power_manager();
    targets.servers.push_back(&service);
    targets.monitor = devices[0]->monitor.get();
    injector = std::make_unique<odfault::FaultInjector>(&sim, targets);
  }

  // Settle: disks spin down, power states reach steady background draw.
  sim.RunUntil(sim.Now() + odsim::SimDuration::Seconds(15));
  odsim::SimTime start = sim.Now();

  for (auto& d : devices) {
    d->laptop->accounting().Reset(start);
    d->supply = std::make_unique<odpower::EnergySupply>(
        &d->laptop->accounting(), initial_joules);
    d->director = std::make_unique<odenergy::GoalDirector>(
        d->viceroy.get(), d->supply.get(), d->monitor.get(),
        start + options.goal, options.director);
    d->director->Start(/*stop_sim_on_completion=*/false);
  }
  if (injector != nullptr) {
    injector->Arm(options.fault_plan);
  }

  // Per-device fetch loop: one keyed fetch per (jittered) period, skipped
  // while too many are outstanding, stopped when the device's run is over
  // (goal met or battery dead).
  std::function<void(int)> fetch_tick = [&](int i) {
    Device& d = *devices[i];
    if (d.director->outcome() != odenergy::GoalOutcome::kRunning) {
      return;
    }
    // Behavior gating: fetch only where the device's scenario is active
    // and has coverage.  The tick keeps rescheduling through inactive
    // stretches (and keeps drawing its jitter, so the workload stream
    // stays aligned with the always-on loop's schedule).
    bool behave = true;
    if (d.scenario != nullptr) {
      odsim::SimDuration t = ScenarioPhaseTime(*d.scenario, sim.Now() - start);
      behave = d.scenario->ActiveAt(t) && d.scenario->CoverageAt(t);
      if (!behave) {
        ++d.scenario_skipped_ticks;
      }
    }
    if (behave && d.outstanding < kMaxOutstanding) {
      int level = d.app->current_fidelity();
      const FleetLevelSpec& spec = FleetLevels()[level];
      int object = d.rng->UniformInt(0, kSharedObjects - 1);
      std::string key =
          "obj" + std::to_string(object) + "@f" + std::to_string(level);
      ++d.fetches;
      ++d.outstanding;
      d.warden->Fetch(
          key, kRequestBytes, spec.reply_bytes, spec.distill_time,
          [&d](const odyssey::Warden::FetchOutcome&) { --d.outstanding; });
    }
    odsim::SimDuration next = kFetchPeriod * d.rng->Uniform(0.9, 1.1);
    sim.Schedule(next, [&fetch_tick, i] { fetch_tick(i); });
  };
  for (int i = 0; i < options.clients; ++i) {
    // Stagger first fetches across one period so the fleet does not arrive
    // in a synchronized burst.
    odsim::SimDuration phase =
        kFetchPeriod * (static_cast<double>(i) / options.clients);
    sim.Schedule(phase, [&fetch_tick, i] { fetch_tick(i); });
  }

  if (options.device_probe) {
    sim.Every(odsim::SimDuration::Seconds(1), [&] {
      for (int i = 0; i < options.clients; ++i) {
        options.device_probe(i, sim.Now(), *devices[i]->laptop,
                             *devices[i]->supply);
      }
    });
  }

  sim.RunUntil(start + options.goal + options.run_slack);
  odsim::SimTime end = sim.Now();

  for (auto& d : devices) {
    d->director->Stop();
    d->monitor->Stop();
  }

  FleetResult result;
  result.clients = options.clients;
  result.elapsed_seconds = (end - start).seconds();
  result.events_processed = sim.events_processed();
  result.devices.reserve(options.clients);
  for (auto& d : devices) {
    FleetDeviceResult dev;
    dev.goal_met = d->director->outcome() == odenergy::GoalOutcome::kGoalMet;
    dev.residual_joules = d->supply->ResidualJoules(end);
    dev.consumed_joules = d->laptop->accounting().TotalJoules(end);
    dev.final_fidelity = d->app->current_fidelity();
    dev.fetches = d->fetches;
    dev.rejected_fetches = d->warden->rejected_fetches();
    dev.cache_hits = d->warden->cache_hits();
    dev.failed_fetches = d->warden->failed_fetches();
    dev.overload_clamps = d->viceroy->overload_clamps();
    dev.scenario_skipped_ticks = d->scenario_skipped_ticks;

    result.goal_met_count += dev.goal_met ? 1 : 0;
    result.mean_final_fidelity += dev.final_fidelity;
    result.mean_residual_joules += dev.residual_joules;
    result.mean_consumed_joules += dev.consumed_joules;
    result.total_fetches += dev.fetches;
    result.total_rejected_fetches += dev.rejected_fetches;
    result.total_device_cache_hits += dev.cache_hits;
    result.devices_overload_clamped += dev.overload_clamps > 0 ? 1 : 0;
    result.total_scenario_skipped_ticks += dev.scenario_skipped_ticks;
    result.devices.push_back(dev);
  }
  result.goal_attainment =
      static_cast<double>(result.goal_met_count) / options.clients;
  result.mean_final_fidelity /= options.clients;
  result.mean_residual_joules /= options.clients;
  result.mean_consumed_joules /= options.clients;

  result.server_completed = service.completed_requests();
  result.server_rejected = service.rejected_requests();
  result.server_cache_hits = service.cache_hits();
  result.server_batch_joins = service.batch_joins();
  result.server_cache_evictions = service.cache_evictions();
  result.server_busy_seconds = service.total_busy_seconds();
  result.server_utilization =
      result.elapsed_seconds > 0.0
          ? result.server_busy_seconds / result.elapsed_seconds
          : 0.0;
  // completed_requests() already counts cache hits as completions.
  result.cache_hit_rate =
      service.completed_requests() > 0
          ? static_cast<double>(service.cache_hits()) /
                service.completed_requests()
          : 0.0;
  result.queue_wait_mean_seconds = service.MeanWaitSeconds();
  result.queue_wait_p50_seconds = service.WaitPercentileSeconds(50.0);
  result.queue_wait_p95_seconds = service.WaitPercentileSeconds(95.0);
  return result;
}

}  // namespace odapps
