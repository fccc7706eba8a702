// Fleet-scale degradation curve: N devices, one distillation service.
//
// Sweeps client count (1 -> 10k) x distilled-content cache (off/on) over
// the shared-service fleet (src/apps/fleet.h).  Each device runs its own
// ThinkPad power model and GoalDirector against a common battery goal; the
// cells record goal attainment, mean final fidelity, server utilization,
// queue-wait percentiles, and cache hit rate.
//
// The measured claim: without the cache, goal attainment collapses once
// the fleet saturates the service — queue latency holds every client's
// wireless interface out of standby, and contention at the server is paid
// in energy at the edge.  With the cache, repeated keys are served without
// queueing and attainment holds.  The experiment fails (rc 1) if cache-on
// attainment does not strictly dominate cache-off at >= 1000 clients.
//
// --fault-plan is honored and stamped into provenance; only stall windows
// apply to a fleet (they wedge the shared service), so any other kind is
// rejected with exit 64.

#include <array>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/apps/fleet.h"
#include "src/fault/fault_plan.h"
#include "src/harness/sweep_runner.h"
#include "src/util/table.h"

namespace {

// Shared by fleet_sweep and the compact fleet_small golden so the CI cell
// measures exactly what the sweep measures.
odharness::TrialSample FleetCell(int clients, bool cache_on,
                                 const odfault::FaultPlan& plan, uint64_t seed,
                                 bool scenario_diversity = false) {
  odapps::FleetOptions options;
  options.clients = clients;
  options.seed = seed;
  options.service.cache_capacity = cache_on ? 512 : 0;
  options.fault_plan = plan;
  options.scenario_diversity = scenario_diversity;
  odapps::FleetResult r = odapps::RunFleetScenario(options);

  odharness::TrialSample sample;
  sample.value = r.goal_attainment;
  sample.breakdown["goal_met"] = r.goal_met_count;
  sample.breakdown["mean_final_fidelity"] = r.mean_final_fidelity;
  sample.breakdown["mean_residual_joules"] = r.mean_residual_joules;
  sample.breakdown["mean_consumed_joules"] = r.mean_consumed_joules;
  sample.breakdown["fetches"] = r.total_fetches;
  sample.breakdown["rejected_fetches"] = r.total_rejected_fetches;
  sample.breakdown["device_cache_hits"] = r.total_device_cache_hits;
  sample.breakdown["devices_overload_clamped"] = r.devices_overload_clamped;
  if (scenario_diversity) {
    sample.breakdown["scenario_skipped_ticks"] = r.total_scenario_skipped_ticks;
  }
  sample.breakdown["server_completed"] = r.server_completed;
  sample.breakdown["server_rejected"] = r.server_rejected;
  sample.breakdown["server_cache_hits"] = r.server_cache_hits;
  sample.breakdown["server_batch_joins"] = r.server_batch_joins;
  sample.breakdown["server_cache_evictions"] = r.server_cache_evictions;
  sample.breakdown["server_busy_seconds"] = r.server_busy_seconds;
  sample.breakdown["server_utilization"] = r.server_utilization;
  sample.breakdown["cache_hit_rate"] = r.cache_hit_rate;
  sample.breakdown["wait_mean_s"] = r.queue_wait_mean_seconds;
  sample.breakdown["wait_p50_s"] = r.queue_wait_p50_seconds;
  sample.breakdown["wait_p95_s"] = r.queue_wait_p95_seconds;
  return sample;
}

// Only stall windows make sense fleet-wide (they wedge the shared
// service); device-scoped kinds would disturb one device of N and measure
// nothing.  Returns false (after printing why) on any other kind.
bool ValidateFleetPlan(const odfault::FaultPlan& plan) {
  for (const odfault::FaultEvent& event : plan.events) {
    if (event.kind != odfault::FaultKind::kServerStall) {
      std::fprintf(stderr,
                   "fleet_sweep: fault kind '%s' does not apply fleet-wide; "
                   "only 'stall' windows hit the shared service\n",
                   odfault::FaultKindName(event.kind));
      return false;
    }
  }
  return true;
}

std::string CellLabel(int clients, bool cache_on) {
  return "n=" + std::to_string(clients) + (cache_on ? " cache=on" : " cache=off");
}

}  // namespace

ODBENCH_EXPERIMENT(fleet_sweep,
                   "Fleet sweep: goal attainment vs client count, "
                   "shared service, cache on/off") {
  odfault::FaultPlan plan = odbench::PlanFromContext(ctx);
  if (!ValidateFleetPlan(plan)) {
    return 64;
  }

  constexpr std::array<int, 5> kClients = {1, 32, 256, 1000, 10000};

  odutil::Table table(
      "Fleet sweep: 600 s battery goal, one shared distillation service "
      "(per-cell fleet run)");
  table.SetHeader({"Clients", "Cache", "Attain", "Fid", "Util", "p50 wait",
                   "p95 wait", "Hit rate", "Rejects"});

  // The ten cells run concurrently under --jobs; the sweep records them in
  // submission order (cache off, then on; clients ascending), so labels,
  // seeds and the artifact are those of a serial run.
  odharness::Sweep sweep(ctx);
  size_t cell[2][kClients.size()] = {};  // [cache_on][client index]
  for (int cache = 0; cache <= 1; ++cache) {
    for (size_t i = 0; i < kClients.size(); ++i) {
      const int n = kClients[i];
      const bool cache_on = cache == 1;
      cell[cache][i] = sweep.AddTrials(
          CellLabel(n, cache_on), 1, 91000 + 10 * i + cache,
          [&plan, n, cache_on](uint64_t seed) {
            return FleetCell(n, cache_on, plan, seed);
          });
    }
  }
  sweep.Run();

  for (int cache = 0; cache <= 1; ++cache) {
    for (size_t i = 0; i < kClients.size(); ++i) {
      const odharness::TrialSet& set = sweep.Set(cell[cache][i]);
      table.AddRow({std::to_string(kClients[i]), cache == 1 ? "on" : "off",
                    odutil::Table::Num(set.summary.mean, 3),
                    odutil::Table::Num(set.Mean("mean_final_fidelity"), 2),
                    odutil::Table::Num(set.Mean("server_utilization"), 3),
                    odutil::Table::Num(set.Mean("wait_p50_s"), 3),
                    odutil::Table::Num(set.Mean("wait_p95_s"), 3),
                    odutil::Table::Num(set.Mean("cache_hit_rate"), 3),
                    odutil::Table::Num(set.Mean("rejected_fetches"), 0)});
    }
  }
  table.Print();

  int rc = 0;
  for (size_t i = 0; i < kClients.size(); ++i) {
    if (kClients[i] < 1000) {
      continue;
    }
    const double off = sweep.Set(cell[0][i]).summary.mean;
    const double on = sweep.Set(cell[1][i]).summary.mean;
    if (!(on > off)) {
      std::printf(
          "FAIL: cache-on attainment (%.3f) does not strictly dominate "
          "cache-off (%.3f) at %d clients\n",
          on, off, kClients[i]);
      rc = 1;
    }
  }
  std::printf(
      "Expected shape: attainment ~1.0 for both arms while the service is\n"
      "unsaturated, collapsing for cache-off once queue latency pins client\n"
      "radios awake (>= ~1k clients) while cache-on holds; mean fidelity\n"
      "degrades first, attainment second.\n");
  return rc;
}

ODBENCH_EXPERIMENT(fleet_small,
                   "Fleet regression cell: 32 clients, cache off/on "
                   "(compact golden)") {
  odfault::FaultPlan plan = odbench::PlanFromContext(ctx);
  if (!ValidateFleetPlan(plan)) {
    return 64;
  }

  // The same three cells run concurrently under --jobs, recorded in
  // submission order.  Third arm: the same fleet with per-device behavior
  // diversity — every device gated by its seed-assigned library scenario.
  // Pins the gating in the compact golden: fewer fetches than the
  // always-on arms and a nonzero skipped-tick count.
  odharness::Sweep sweep(ctx);
  size_t arm[2] = {};
  for (int cache = 0; cache <= 1; ++cache) {
    const bool cache_on = cache == 1;
    arm[cache] = sweep.AddTrials(CellLabel(32, cache_on), 1, 91010 + cache,
                                 [&plan, cache_on](uint64_t seed) {
                                   return FleetCell(32, cache_on, plan, seed);
                                 });
  }
  const size_t diverse_arm = sweep.AddTrials(
      "n=32 cache=on scenarios", 1, 91012, [&plan](uint64_t seed) {
        return FleetCell(32, /*cache_on=*/true, plan, seed,
                         /*scenario_diversity=*/true);
      });
  sweep.Run();

  odutil::Table table("Fleet regression cell: 32 clients, 600 s goal");
  table.SetHeader({"Cache", "Attain", "Fid", "Util", "p50 wait", "p95 wait",
                   "Hit rate"});
  for (int cache = 0; cache <= 1; ++cache) {
    const odharness::TrialSet& set = sweep.Set(arm[cache]);
    table.AddRow({cache == 1 ? "on" : "off",
                  odutil::Table::Num(set.summary.mean, 3),
                  odutil::Table::Num(set.Mean("mean_final_fidelity"), 2),
                  odutil::Table::Num(set.Mean("server_utilization"), 3),
                  odutil::Table::Num(set.Mean("wait_p50_s"), 3),
                  odutil::Table::Num(set.Mean("wait_p95_s"), 3),
                  odutil::Table::Num(set.Mean("cache_hit_rate"), 3)});
  }
  table.Print();

  const odharness::TrialSet& diverse = sweep.Set(diverse_arm);
  std::printf(
      "scenario-diverse arm: attainment %.3f, %d fetches, %d fetch "
      "tick(s) suppressed by behavior timelines\n",
      diverse.summary.mean, static_cast<int>(diverse.Mean("fetches")),
      static_cast<int>(diverse.Mean("scenario_skipped_ticks")));
  return 0;
}
