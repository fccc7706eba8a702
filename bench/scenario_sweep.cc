// Goal-directed adaptation under the scenario library: every named
// user-behavior scenario (src/scenario/library.h) replayed through the
// goal director with the run-level invariants checked inline.  Where the
// fault sweep varies the *environment* under a fixed workload, this sweep
// varies the *behavior* — bursty interaction, commuter connectivity (the
// scenario's coverage gaps arrive as matched fault windows), background
// sync, mixed multi-app days — and the measured claim is that the
// controller stays physical and live under all of them:
//
//   * energy conservation: accounted total equals the sum of component
//     energies plus synergy, at every 1 Hz probe tick;
//   * monotone drain: the true residual never increases;
//   * termination: every scenario decides its outcome before the overrun
//     safety valve;
//   * controller health: the director never ends wedged in safe mode;
//   * bounded estimate error: the director's residual estimate stays
//     within a few percent of ground truth.
//
// With --scenario NAME the sweep runs just that scenario — the repro
// spelling for a single-rung regression.  The canonical scenario text is
// stamped into artifact provenance.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"
#include "src/harness/sweep_runner.h"
#include "src/scenario/driver.h"
#include "src/scenario/library.h"
#include "src/util/check.h"
#include "src/util/table.h"

using namespace odapps;

namespace {

// The supply each scenario starts with: a per-second allowance just under
// the full-fidelity draw of the busy scenarios, so the mixed days force
// adaptation while the idle-heavy ones coast.  The goal is the scenario's
// own duration — "make this battery last the whole commute".
constexpr double kBudgetWattsAllowance = 9.5;

}  // namespace

ODBENCH_EXPERIMENT(scenario_sweep,
                   "Goal attainment across the named user-behavior "
                   "scenarios, with run-level invariant checks") {
  std::vector<odscenario::Scenario> scenarios = odscenario::ScenarioLibrary();
  if (!ctx.options().scenario.empty()) {
    const odscenario::Scenario* found =
        odscenario::FindScenario(ctx.options().scenario);
    OD_CHECK_MSG(found != nullptr, "unknown scenario");
    scenarios = {*found};
  }

  // The behavior(s) this artifact replayed, in canonical spelling — the
  // same round-trippable stamp fault plans get.
  std::string stamped;
  for (const odscenario::Scenario& scenario : scenarios) {
    if (!stamped.empty()) {
      stamped += " | ";
    }
    stamped += scenario.ToString();
  }
  ctx.artifact().provenance.scenario = stamped;

  odutil::Table table(
      "Goal-directed adaptation across user-behavior scenarios "
      "(9.5 W-allowance budget, goal = scenario duration; 2 trials; means)");
  table.SetHeader({"Scenario", "Goal Met", "Residual %", "Est Err %",
                   "Adapts", "Violations", "Fetches", "Pages", "Chunks"});

  odharness::Sweep sweep(ctx);
  std::vector<size_t> cells(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const odscenario::Scenario& scenario = scenarios[i];
    cells[i] = sweep.AddTrials(scenario.name, 2, 52000, [&scenario](
                                                            uint64_t seed) {
      const double duration = scenario.Duration().seconds();
      const double initial_joules = kBudgetWattsAllowance * duration;
      GoalScenarioOptions options;
      options.seed = seed;
      options.initial_joules = initial_joules;
      options.goal = scenario.Duration();
      auto stats = std::make_shared<odscenario::ScenarioWorkloadStats>();
      odscenario::ApplyScenarioWorkload(scenario, &options, stats);

      // Inline invariant probe (1 Hz): violations are counted, not
      // asserted — the sweep fails its exit code when any run records one.
      int conservation_violations = 0;
      int monotone_violations = 0;
      int negative_power_violations = 0;
      double last_residual = initial_joules;
      options.tick_probe = [&](TestBed& bed, odpower::EnergySupply& supply) {
        odsim::SimTime now = bed.sim().Now();
        odpower::EnergyAccounting& acct = bed.laptop().accounting();
        odpower::Machine& machine = bed.laptop().machine();
        double total = acct.TotalJoules(now);
        double parts = acct.SynergyJoules(now);
        for (int c = 0; c < machine.component_count(); ++c) {
          if (machine.component(c).power() < 0.0) {
            ++negative_power_violations;
          }
          parts += acct.ComponentJoules(c, now);
        }
        if (std::abs(total - parts) > 1e-6 * std::max(1.0, total)) {
          ++conservation_violations;
        }
        double residual = supply.ResidualJoules(now);
        if (residual > last_residual + 1e-9 || residual < 0.0) {
          ++monotone_violations;
        }
        last_residual = residual;
      };

      GoalScenarioResult result = RunGoalScenario(options);

      // Termination and controller health are run-level invariants: the
      // outcome must be decided before the overrun valve, and a director
      // still wedged in safe mode after the run's recovery slack is a
      // liveness bug, not a measurement.
      const bool terminated =
          result.outcome != odenergy::GoalOutcome::kRunning &&
          result.elapsed_seconds <
              duration + options.max_overrun.seconds() - 1.0;
      const bool healthy_exit =
          result.final_health != odenergy::ControllerHealth::kSafeMode;
      const double estimate_error_pct =
          100.0 *
          std::abs(result.estimated_residual_joules - result.residual_joules) /
          initial_joules;

      odharness::TrialSample sample;
      sample.value = result.residual_joules;
      sample.breakdown["goal_met"] = result.goal_met ? 1.0 : 0.0;
      sample.breakdown["residual_pct"] =
          100.0 * result.residual_joules / initial_joules;
      sample.breakdown["residual_error_pct"] = estimate_error_pct;
      sample.breakdown["adaptations"] = result.total_adaptations;
      sample.breakdown["elapsed_seconds"] = result.elapsed_seconds;
      sample.breakdown["invariant_violations"] =
          conservation_violations + monotone_violations +
          negative_power_violations + (terminated ? 0 : 1) +
          (healthy_exit ? 0 : 1) + (estimate_error_pct <= 10.0 ? 0 : 1);
      // What the timeline actually did — the determinism witness.
      sample.breakdown["video_segments"] = stats->counters.video_segments;
      sample.breakdown["pages"] = stats->counters.pages;
      sample.breakdown["maps"] = stats->counters.maps;
      sample.breakdown["utterances"] = stats->counters.utterances;
      sample.breakdown["composite_iterations"] =
          stats->counters.composite_iterations;
      sample.breakdown["sync_fetches"] = stats->counters.sync_fetches;
      sample.breakdown["burst_starts"] = stats->counters.burst_starts;
      return sample;
    });
  }
  sweep.Run();

  int worst = 0;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const odharness::TrialSet& set = sweep.Set(cells[i]);
    if (set.Mean("invariant_violations") > 0.0) {
      worst = 1;
    }
    table.AddRow({scenarios[i].name,
                  odutil::Table::Pct(set.Mean("goal_met"), 0),
                  odutil::Table::Num(set.Mean("residual_pct"), 1),
                  odutil::Table::Num(set.Mean("residual_error_pct"), 2),
                  odutil::Table::Num(set.Mean("adaptations"), 1),
                  odutil::Table::Num(set.Mean("invariant_violations"), 1),
                  odutil::Table::Num(set.Mean("sync_fetches"), 1),
                  odutil::Table::Num(set.Mean("pages"), 1),
                  odutil::Table::Num(set.Mean("video_segments"), 1)});
  }
  table.Print();
  std::printf(
      "Expected shape: the busy days (commuter_day, video_evening,\n"
      "office_mix) adapt to make the budget; background_sync and the\n"
      "gap-broken coffee_shop coast on their idle-dominated draw; the\n"
      "violations column is all zeros — conservation, monotone drain,\n"
      "termination, and controller health hold under every behavior\n"
      "timeline.\n");
  return worst;
}
