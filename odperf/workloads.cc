#include "odperf/workloads.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "src/apps/fleet.h"
#include "src/apps/goal_scenario.h"
#include "src/power/accounting.h"
#include "src/scenario/driver.h"
#include "src/scenario/library.h"
#include "src/util/check.h"

namespace odperf {

namespace {

// Gauge miscalibration for the drift sentinel to catch (a 1.3x step, a
// creeping ramp to 1.5x), appended to every goal run's derived gap plan,
// alternating from run to run.
constexpr const char* kGaugeWindows[2] = {"gauge@200+300=1.3",
                                          "ramp@150+400=1.5"};

// Per-second allowance of the goal runs' supply, as in scenario_sweep: just
// under the busy scenarios' full-fidelity draw.
constexpr double kGoalBudgetWatts = 9.5;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Counts draw changes on every machine it is attached to and context
// switches on the simulator's CPU.  Passive: it only increments.
class PowerCounter : public odpower::MachineObserver, public odsim::CpuObserver {
 public:
  void OnMachinePowerChanged(odsim::SimTime) override { ++state_changes; }
  void OnCpuContextSwitch(odsim::SimTime, odsim::ProcessId, odsim::ProcedureId,
                          bool) override {
    ++cpu_switches;
  }
  uint64_t state_changes = 0;
  uint64_t cpu_switches = 0;
};

// Energy conservation: the accounted total equals the per-component
// energies plus synergy.
bool Conserves(odpower::Laptop& laptop, odsim::SimTime now) {
  odpower::EnergyAccounting& acct = laptop.accounting();
  odpower::Machine& machine = laptop.machine();
  double total = acct.TotalJoules(now);
  double parts = acct.SynergyJoules(now);
  for (int c = 0; c < machine.component_count(); ++c) {
    parts += acct.ComponentJoules(c, now);
  }
  return std::abs(total - parts) <= 1e-6 * std::max(1.0, total);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void Fail(UnitResult* result, const std::string& why) {
  if (result->ok) {
    result->ok = false;
    result->failure = why;
  }
}

UnitResult RunFleetUnit(const Plan& plan, int unit, Tracer* tracer,
                        int parent, const std::function<void()>& reference_tick) {
  const bool observe = tracer != nullptr;
  odapps::FleetOptions options;
  options.clients = plan.size.fleet_devices;
  options.seed = UnitSeed(plan, unit);
  options.goal = odsim::SimDuration::Seconds(plan.size.fleet_goal_seconds);
  if (plan.workload == Workload::kFleetCached) {
    options.service.cache_capacity = 512;
  }

  const size_t n = static_cast<size_t>(options.clients);
  UnitResult result;
  std::vector<double> last_residual(n, std::numeric_limits<double>::infinity());
  std::vector<double> dead_at(n, -1.0);
  std::vector<char> attached(n, 0);
  double first_probe = -1.0;
  int probe_ticks = 0;
  double tick_seconds = 0.0;
  PowerCounter counter;
  options.device_probe = [&](int device, odsim::SimTime now,
                             odpower::Laptop& laptop,
                             odpower::EnergySupply& supply) {
    const size_t i = static_cast<size_t>(device);
    if (first_probe < 0.0) {
      first_probe = now.seconds();
    }
    if (device == 0 && ++probe_ticks % kFleetTickSeconds == 0 && reference_tick) {
      auto start = std::chrono::steady_clock::now();
      reference_tick();
      tick_seconds += SecondsSince(start);
    }
    double residual = supply.ResidualJoules(now);
    if (residual > last_residual[i] + 1e-9 || residual < 0.0) {
      Fail(&result, "residual rose on device " + std::to_string(device));
    }
    last_residual[i] = residual;
    if (residual <= 0.0 && dead_at[i] < 0.0) {
      dead_at[i] = now.seconds();
    }
    // Conservation every 10 simulated seconds per device keeps the probe's
    // own cost small beside the fleet's.
    if (now.micros() % 10'000'000 == 0 && !Conserves(laptop, now)) {
      Fail(&result, "energy not conserved on device " + std::to_string(device));
    }
    if (observe && !attached[i]) {
      attached[i] = 1;
      laptop.machine().AddObserver(&counter);
      if (device == 0) {
        laptop.machine().sim()->AddCpuObserver(&counter);
      }
    }
  };

  odapps::FleetResult fleet;
  {
    SpanScope span(tracer, "apps.RunFleetScenario", parent);
    auto start = std::chrono::steady_clock::now();
    fleet = odapps::RunFleetScenario(options);
    result.host_seconds = SecondsSince(start) - tick_seconds;
    span.set_count(fleet.events_processed);
  }

  // The probe first fires one second after the goal clock starts.
  const double start = first_probe - 1.0;
  const double goal = options.goal.seconds();
  result.runs = fleet.clients;
  result.events = fleet.events_processed;
  result.sim_seconds = fleet.elapsed_seconds * fleet.clients;
  result.goal_attainment = fleet.goal_attainment;
  double life = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const odapps::FleetDeviceResult& dev = fleet.devices[i];
    result.residual_joules += dev.residual_joules;
    if (dev.goal_met) {
      life += 1.0;
    } else if (dead_at[i] >= 0.0) {
      life += std::min(dead_at[i] - start, goal) / goal;
    } else {
      Fail(&result, "device " + std::to_string(i) + " ended undecided");
    }
    result.net_failed += dev.failed_fetches;
    result.overload_clamps += dev.overload_clamps;
  }
  result.goal_life_frac = life / static_cast<double>(n);
  result.mean_final_fidelity = fleet.mean_final_fidelity;
  result.net_rpcs = fleet.total_fetches;
  result.serve_completed = fleet.server_completed;
  result.serve_cache_hits = fleet.server_cache_hits;
  result.serve_batch_joins = fleet.server_batch_joins;
  result.serve_evictions = fleet.server_cache_evictions;
  result.serve_rejected = fleet.server_rejected;
  result.serve_busy_s = fleet.server_busy_seconds;
  result.serve_utilization = fleet.server_utilization;
  result.serve_wait_p50_s = fleet.queue_wait_p50_seconds;
  result.serve_wait_p95_s = fleet.queue_wait_p95_seconds;
  result.serve_cache_hit_rate = fleet.cache_hit_rate;
  result.power_state_changes = static_cast<double>(counter.state_changes);
  result.power_cpu_switches = static_cast<double>(counter.cpu_switches);
  return result;
}

UnitResult RunGoalUnit(const Plan& plan, int unit, Tracer* tracer,
                       int parent, const std::function<void()>& reference_tick) {
  const bool observe = tracer != nullptr;
  UnitResult result;
  PowerCounter counter;
  const uint64_t unit_seed = UnitSeed(plan, unit);
  const int scenarios = plan.size.goal_scenarios;
  double fidelity_sum = 0.0;
  int fidelity_count = 0;
  double life = 0.0;
  int met = 0;

  for (int k = 0; k < plan.size.goal_seeds; ++k) {
    const uint64_t run_seed = SplitMix64(unit_seed ^ static_cast<uint64_t>(k));
    for (int s = 0; s < scenarios; ++s) {
      const GoalRunInput& input =
          plan.goal_inputs[static_cast<size_t>(2 * s + (k + s) % 2)];
      const double duration = input.scenario.Duration().seconds();
      const double initial_joules = kGoalBudgetWatts * duration;

      odapps::GoalScenarioOptions options;
      options.seed = run_seed;
      options.initial_joules = initial_joules;
      options.goal = input.scenario.Duration();
      options.learned_model = true;
      options.director.drift_sentinel.enabled = true;
      options.fault_plan = input.fault_plan;
      auto stats = std::make_shared<odscenario::ScenarioWorkloadStats>();
      odscenario::ApplyScenarioWorkload(input.scenario, &options, stats,
                                        /*derive_environment=*/false);

      // Teardown readings through the workload seam: the TestBed is gone
      // once RunGoalScenario returns.
      uint64_t events = 0;
      double rpc_failed = 0.0;
      auto inner = std::move(options.workload_factory);
      options.workload_factory = [&, inner](odapps::TestBed& bed) {
        if (observe) {
          bed.laptop().machine().AddObserver(&counter);
          bed.sim().AddCpuObserver(&counter);
        }
        std::function<void()> stop = inner(bed);
        return std::function<void()>([&, stop, bed_ptr = &bed] {
          stop();
          events = bed_ptr->sim().events_processed();
          const odnet::RpcClient& rpc = bed_ptr->viceroy().rpc();
          rpc_failed = rpc.retries_exhausted() + rpc.deadlines_exceeded() +
                       rpc.rejected();
        });
      };

      double last_residual = initial_joules;
      options.tick_probe = [&](odapps::TestBed& bed,
                               odpower::EnergySupply& supply) {
        odsim::SimTime now = bed.sim().Now();
        if (!Conserves(bed.laptop(), now)) {
          Fail(&result, "energy not conserved in " + input.scenario.name);
        }
        double residual = supply.ResidualJoules(now);
        if (residual > last_residual + 1e-9 || residual < 0.0) {
          Fail(&result, "residual rose in " + input.scenario.name);
        }
        last_residual = residual;
      };

      odapps::GoalScenarioResult run;
      {
        SpanScope span(tracer, "apps.RunGoalScenario", parent);
        auto start = std::chrono::steady_clock::now();
        run = odapps::RunGoalScenario(options);
        result.host_seconds += SecondsSince(start);
        span.set_count(events);
      }
      if (reference_tick) {
        reference_tick();
      }

      if (run.outcome == odenergy::GoalOutcome::kRunning ||
          run.elapsed_seconds >= duration + options.max_overrun.seconds() - 1.0) {
        Fail(&result, "no outcome before the overrun valve in " +
                          input.scenario.name);
      }
      if (run.final_health == odenergy::ControllerHealth::kSafeMode) {
        Fail(&result, "director ended in safe mode in " + input.scenario.name);
      }

      ++result.runs;
      result.events += events;
      result.sim_seconds += run.elapsed_seconds;
      met += run.goal_met ? 1 : 0;
      life += run.goal_met ? 1.0 : std::min(run.elapsed_seconds / duration, 1.0);
      result.residual_joules += run.residual_joules;
      result.estimate_err_pct +=
          100.0 * std::abs(run.estimated_residual_joules - run.residual_joules) /
          initial_joules;
      result.net_failed += rpc_failed;
      result.outage_clamps += run.outage_clamps;
      result.adaptations += run.total_adaptations;
      result.safe_mode_entries += run.safe_mode_entries;
      result.drift_entries += run.drift_entries;
      result.invalid_samples += run.invalid_samples;
      for (const auto& [app, level] : run.final_fidelity) {
        fidelity_sum += level;
        ++fidelity_count;
      }
      const odscenario::ScenarioDriver::Counters& c = stats->counters;
      result.video_segments += c.video_segments;
      result.pages += c.pages;
      result.maps += c.maps;
      result.utterances += c.utterances;
      result.composite_iterations += c.composite_iterations;
      result.composite_deferrals += c.composite_deferrals;
      result.sync_fetches += c.sync_fetches;
    }
  }
  const double runs = std::max(1, result.runs);
  result.goal_attainment = met / runs;
  result.goal_life_frac = life / runs;
  result.estimate_err_pct /= runs;
  result.mean_final_fidelity =
      fidelity_count > 0 ? fidelity_sum / fidelity_count : 0.0;
  result.power_state_changes = static_cast<double>(counter.state_changes);
  result.power_cpu_switches = static_cast<double>(counter.cpu_switches);
  return result;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kFleetContended:
      return "fleet_contended";
    case Workload::kFleetCached:
      return "fleet_cached";
    case Workload::kGoalDefended:
      return "goal_defended";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kFleetContended, Workload::kFleetCached,
                     Workload::kGoalDefended}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

Plan Prepare(Workload workload, uint64_t seed, const UnitSize& size) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  plan.size = size;
  if (workload != Workload::kGoalDefended) {
    return plan;
  }
  const std::vector<odscenario::Scenario>& library =
      odscenario::ScenarioLibrary();
  OD_CHECK(size.goal_scenarios >= 1 &&
           static_cast<size_t>(size.goal_scenarios) <= library.size());
  for (int s = 0; s < size.goal_scenarios; ++s) {
    // Inputs arrive as text, as a user would supply them.
    odscenario::Scenario scenario;
    std::string error;
    OD_CHECK_MSG(odscenario::Scenario::Parse(
                     library[static_cast<size_t>(s)].ToString(), &scenario,
                     &error),
                 error.c_str());
    const std::string derived = scenario.DerivedFaultPlan().ToString();
    for (const char* window : kGaugeWindows) {
      GoalRunInput input;
      input.scenario = scenario;
      const std::string spec =
          derived.empty() ? std::string(window) : derived + ";" + window;
      OD_CHECK_MSG(odfault::FaultPlan::Parse(spec, &input.fault_plan, &error),
                   error.c_str());
      plan.goal_inputs.push_back(std::move(input));
    }
  }
  return plan;
}

uint64_t UnitSeed(const Plan& plan, int unit) {
  return SplitMix64(SplitMix64(plan.seed) + static_cast<uint64_t>(unit));
}

int ReferenceTicks(Workload workload, const UnitSize& size) {
  if (workload == Workload::kGoalDefended) {
    return size.goal_seeds * size.goal_scenarios;
  }
  // Probes run at 1 Hz from one second after the goal clock starts until
  // the fleet's 2 s run slack ends.
  const int probes = static_cast<int>(size.fleet_goal_seconds) +
                     static_cast<int>(odapps::FleetOptions{}.run_slack.seconds());
  return probes / kFleetTickSeconds;
}

UnitResult RunUnit(const Plan& plan, int unit, Tracer* tracer, int parent,
                   const std::function<void()>& reference_tick) {
  return plan.workload == Workload::kGoalDefended
             ? RunGoalUnit(plan, unit, tracer, parent, reference_tick)
             : RunFleetUnit(plan, unit, tracer, parent, reference_tick);
}

std::string UnitResult::Signature() const {
  uint64_t hash = 1469598103934665603ULL;
  for (double v : {goal_attainment, goal_life_frac, residual_joules,
                   estimate_err_pct, serve_completed, serve_cache_hits,
                   serve_batch_joins, serve_evictions, serve_rejected,
                   serve_busy_s, serve_wait_p50_s, serve_wait_p95_s, net_rpcs,
                   net_failed, overload_clamps, outage_clamps, adaptations,
                   safe_mode_entries, drift_entries, invalid_samples,
                   mean_final_fidelity, video_segments, pages, maps,
                   utterances, composite_iterations, composite_deferrals,
                   sync_fetches, sim_seconds}) {
    hash = FnvMix(hash, std::bit_cast<uint64_t>(v));
  }
  hash = FnvMix(hash, events);
  char line[320];
  std::snprintf(line, sizeof(line),
                "events=%" PRIu64 " attainment=%.4f residual_j=%.6f "
                "served=%.0f hits=%.0f joins=%.0f rejected=%.0f hash=%016" PRIx64,
                events, goal_attainment, residual_joules, serve_completed,
                serve_cache_hits, serve_batch_joins, serve_rejected, hash);
  return line;
}

}  // namespace odperf
