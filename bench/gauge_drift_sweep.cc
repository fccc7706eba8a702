// Gauge-drift sweep: residual-estimate error and goal attainment vs. drift
// magnitude, with and without the drift sentinel.
//
// The Figure 20 goal scenario (1320 s goal on 13,500 J) under gauge-scale
// faults.  Sub-plausible magnitudes (1.2x, 1.5x at ~10 W stay under the
// 15 W plausibility bar) sail through PR 5's health validation and silently
// bias the residual estimate by the scale error integrated over the fault
// window; the sentinel arm cross-checks the gauge against the learned
// model and discounts it while drifted.  The implausible 3x rung is the
// complementary case: validation rejects every reading outright in both
// arms, so the sentinel has nothing left to add.  A slow-ramp rung covers
// the drift shape a step detector would miss.
//
// With --trace the sentinel arm's 1.5x rung is re-run deterministically and
// recorded as a fig19-style per-component power profile; its golden lives
// under tests/data/traces/warn/ (warn-only gate: the profile is expected to
// evolve with controller tuning, but a shape change should be *seen*).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"
#include "src/fault/fault_plan.h"
#include "src/harness/sweep_runner.h"
#include "src/trace/trace_artifact.h"
#include "src/util/check.h"
#include "src/util/table.h"

using namespace odapps;

namespace {

struct Rung {
  const char* label;
  const char* spec;       // odfault plan grammar.
  bool sub_plausible;     // Passes PR 5 validation silently.
};

GoalScenarioOptions RungOptions(const odfault::FaultPlan& plan, bool sentinel,
                                uint64_t seed) {
  GoalScenarioOptions options;
  options.seed = seed;
  options.initial_joules = 13500.0;
  options.goal = odsim::SimDuration::Seconds(1320.0);
  options.fault_plan = plan;
  options.learned_model = true;
  options.director.drift_sentinel.enabled = sentinel;
  return options;
}

odharness::TrialSample DriftCell(const GoalScenarioOptions& options) {
  GoalScenarioResult result = RunGoalScenario(options);
  odharness::TrialSample sample;
  sample.value =
      std::abs(result.estimated_residual_joules - result.residual_joules);
  sample.breakdown["goal_met"] = result.goal_met ? 1.0 : 0.0;
  sample.breakdown["residual_pct"] =
      100.0 * result.residual_joules / options.initial_joules;
  sample.breakdown["residual_error_pct"] =
      100.0 *
      std::abs(result.estimated_residual_joules - result.residual_joules) /
      options.initial_joules;
  sample.breakdown["invalid_samples"] = result.invalid_samples;
  sample.breakdown["safe_mode_seconds"] = result.safe_mode_seconds;
  sample.breakdown["drift_entries"] = result.drift_entries;
  sample.breakdown["drift_seconds"] = result.drift_seconds;
  sample.breakdown["detect_latency_s"] =
      result.first_drift_detected_seconds.has_value()
          ? *result.first_drift_detected_seconds
          : -1.0;
  sample.breakdown["adaptations"] = result.total_adaptations;
  sample.breakdown["elapsed_seconds"] = result.elapsed_seconds;
  return sample;
}

}  // namespace

ODBENCH_EXPERIMENT(gauge_drift_sweep,
                   "Residual-estimate error vs gauge-drift magnitude, "
                   "with and without the drift sentinel") {
  // Fault windows sit inside the goal with slack after them, so recovery
  // is part of the record.  800 s at 1.2x is a ~1,600 J raw bias; the
  // 1.2x step exceeds kMaxPlausibleWatts only at workload peaks, so most
  // of its readings pass validation and the bias accrues silently in the
  // baseline arm.  1.5x is caught at peaks but not in the troughs; 3x is
  // rejected sample-by-sample (the complementary case: the fault window
  // becomes a gauge blackout, and the error both arms carry is the
  // safe-mode accounting drift, which no cross-check can reduce).
  const std::vector<Rung> rungs = {
      {"step 1.2x", "gauge@200+800=1.2", true},
      {"step 1.5x", "gauge@200+800=1.5", true},
      {"step 3x", "gauge@200+800=3", false},
      {"ramp to 1.6x", "ramp@200+800=1.6", true},
  };

  std::vector<odfault::FaultPlan> plans(rungs.size());
  std::string stamped;
  for (size_t i = 0; i < rungs.size(); ++i) {
    std::string error;
    OD_CHECK_MSG(odfault::FaultPlan::Parse(rungs[i].spec, &plans[i], &error),
                 error.c_str());
    if (!stamped.empty()) {
      stamped += " | ";
    }
    stamped += plans[i].ToString();
  }
  ctx.artifact().provenance.fault_plan = stamped;

  odutil::Table table(
      "Gauge drift vs the sentinel (13,500 J, 1320 s goal; 2 trials per "
      "cell; means)");
  table.SetHeader({"Fault", "Sentinel", "Goal Met", "Residual %", "Est Err %",
                   "Invalid", "Safe s", "Drift #", "Detect s"});

  odharness::Sweep sweep(ctx);
  // cells[armed][rung]
  std::vector<std::vector<size_t>> cells(2, std::vector<size_t>(rungs.size()));
  for (int armed = 0; armed <= 1; ++armed) {
    for (size_t i = 0; i < rungs.size(); ++i) {
      const odfault::FaultPlan& plan = plans[i];
      const std::string label =
          std::string(rungs[i].label) + (armed ? " / sentinel" : " / baseline");
      cells[armed][i] = sweep.AddTrials(
          label, 2, 61000 + 100 * i + 10 * armed,
          [&plan, armed](uint64_t seed) {
            return DriftCell(RungOptions(plan, armed == 1, seed));
          });
    }
  }
  sweep.Run();

  int rc = 0;
  for (size_t i = 0; i < rungs.size(); ++i) {
    for (int armed = 0; armed <= 1; ++armed) {
      const odharness::TrialSet& set = sweep.Set(cells[armed][i]);
      table.AddRow(
          {rungs[i].label, armed ? "on" : "off",
           odutil::Table::Pct(set.Mean("goal_met"), 0),
           odutil::Table::Num(set.Mean("residual_pct"), 1),
           odutil::Table::Num(set.Mean("residual_error_pct"), 2),
           odutil::Table::Num(set.Mean("invalid_samples"), 1),
           odutil::Table::Num(set.Mean("safe_mode_seconds"), 1),
           odutil::Table::Num(set.Mean("drift_entries"), 1),
           odutil::Table::Num(set.Mean("detect_latency_s"), 1)});
    }
    const odharness::TrialSet& off = sweep.Set(cells[0][i]);
    const odharness::TrialSet& on = sweep.Set(cells[1][i]);
    if (rungs[i].sub_plausible) {
      // The claim: the sentinel bounds the silent bias (<= 10% of supply)
      // and strictly improves on the unchecked accounting, which carries
      // the full integrated scale error.
      if (on.Mean("residual_error_pct") > 10.0 ||
          on.Mean("residual_error_pct") >= off.Mean("residual_error_pct")) {
        std::printf("FAIL: %s sentinel error %.2f%% not bounded below "
                    "baseline %.2f%%\n",
                    rungs[i].label, on.Mean("residual_error_pct"),
                    off.Mean("residual_error_pct"));
        rc = 1;
      }
      if (on.Mean("drift_entries") < 1.0) {
        std::printf("FAIL: %s sentinel never declared drift\n",
                    rungs[i].label);
        rc = 1;
      }
    } else {
      // Implausible magnitudes are already rejected sample-by-sample, so
      // the fault window is a gauge blackout in both arms and the residual
      // error is the safe-mode accounting drift.  The sentinel sees no
      // valid readings to cross-check; the claim is only that it does not
      // make the blackout worse.
      if (off.Mean("invalid_samples") < 1.0 ||
          on.Mean("residual_error_pct") >
              off.Mean("residual_error_pct") + 1.0) {
        std::printf("FAIL: %s expected validation rejections (got %.0f) "
                    "and sentinel no worse than baseline (%.2f%% vs "
                    "%.2f%%)\n",
                    rungs[i].label, off.Mean("invalid_samples"),
                    on.Mean("residual_error_pct"),
                    off.Mean("residual_error_pct"));
        rc = 1;
      }
    }
  }
  table.Print();
  std::printf(
      "Expected shape: the 1.2x step passes validation everywhere but the\n"
      "workload peaks, so the baseline arm silently absorbs most of the\n"
      "integrated scale error, while the sentinel arm detects within tens\n"
      "of seconds of the window filling, discounts the gauge, and lands\n"
      "well below the baseline's bias.  Harsher rungs are increasingly\n"
      "caught by per-sample validation until 3x, where the fault window is\n"
      "a full gauge blackout in both arms and the sentinel's job is only\n"
      "to do no harm; the ramp shows the slow-onset shape a step detector\n"
      "misses.\n");

  if (ctx.trace_enabled()) {
    // Power-profile signature of the sentinel arm's 1.5x rung, re-run
    // deterministically at the base seed: the drift window must not change
    // the *true* per-component draw (the fault corrupts telemetry, not
    // power), so the profile doubles as a no-actuation-side-effect check.
    const uint64_t seed = ctx.options().seed > 0 ? ctx.options().seed : 61110;
    GoalScenarioOptions options = RungOptions(plans[1], true, seed);
    options.trace = true;
    GoalScenarioResult result = RunGoalScenario(options);
    odtrace::TraceArtifact traces;
    traces.Add("step 1.5x / sentinel", seed, *result.trace);
    odtrace::AttachTraceArtifact(ctx, std::move(traces));
  }
  return rc;
}
