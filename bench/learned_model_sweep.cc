// Self-constructive power model: coefficient recovery and the
// calibration-withheld deployment.
//
// Three cells over the Figure 20 goal workload (1320 s goal, 13,500 J):
//
//   calibrated   - the learned estimator rides along in observe-only mode;
//                  the measured claim is that its integrated energy tracks
//                  the analytic accounting within 10%.  The per-coefficient
//                  recovery error vs. the calibration table is reported and
//                  golden-tracked but not hard-gated here: the adaptive
//                  workload co-excites components (network + CPU + display
//                  move together), so individual coefficients are only
//                  identifiable up to that collinearity — the controlled-
//                  excitation unit tests (learned_model_test) pin exact
//                  recovery where excitation is orthogonal.
//   scaled gauge - the same fit against a gauge that over-reads by 1.1x
//                  from the first sample (under kMaxPlausibleWatts even at
//                  workload peaks, so validation stays silent).  The model
//                  must learn the *delivered* stream, so its energy comes
//                  out scaled by the same factor relative to the calibrated
//                  cell.  This is the estimator seam made measurable.
//   withheld     - the calibration-withheld ablation: the director runs on
//                  the SmartBattery gauge and hands the residual estimate
//                  over to the learned model once it converges
//                  (learned_primary_when_converged; the 1 Hz quantized
//                  gauge carries ~15% irreducible window mismatch, so the
//                  convergence bar is set at 20% for this deployment).
//                  Goal attainment must stay within 15% of the calibrated
//                  baseline.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"
#include "src/fault/fault_plan.h"
#include "src/util/check.h"
#include "src/util/table.h"

using namespace odapps;

namespace {

odharness::TrialSample LearnedCell(const GoalScenarioOptions& options) {
  GoalScenarioResult result = RunGoalScenario(options);
  odharness::TrialSample sample;
  sample.value = result.coefficient_recovery_error;
  sample.breakdown["goal_met"] = result.goal_met ? 1.0 : 0.0;
  sample.breakdown["residual_pct"] =
      100.0 * result.residual_joules / options.initial_joules;
  sample.breakdown["residual_error_pct"] =
      100.0 *
      std::abs(result.estimated_residual_joules - result.residual_joules) /
      options.initial_joules;
  sample.breakdown["converged"] = result.learned_converged ? 1.0 : 0.0;
  sample.breakdown["confidence"] = result.learned_confidence;
  sample.breakdown["recovery_error"] = result.coefficient_recovery_error;
  // Learned energy integral vs. analytic ground truth; the few early
  // pre-convergence windows integrate a still-forming fit, worth ~1-2%.
  sample.breakdown["learned_ratio"] =
      result.accounted_joules > 0.0
          ? result.learned_joules / result.accounted_joules
          : 0.0;
  sample.breakdown["learned_primary"] = result.learned_primary_active ? 1.0 : 0.0;
  sample.breakdown["adaptations"] = result.total_adaptations;
  sample.breakdown["elapsed_seconds"] = result.elapsed_seconds;
  return sample;
}

}  // namespace

ODBENCH_EXPERIMENT(learned_model_sweep,
                   "Self-constructive power model: coefficient recovery "
                   "from the gauge stream, plus the calibration-withheld "
                   "deployment") {
  const double initial_joules = 13500.0;
  const double goal_seconds = 1320.0;

  // The scaled-gauge cell's disturbance: a sub-plausible 1.1x over-read
  // covering the whole run including the overrun valve.
  odfault::FaultPlan scaled_plan;
  std::string error;
  OD_CHECK_MSG(
      odfault::FaultPlan::Parse("gauge@0+1920=1.1", &scaled_plan, &error),
      error.c_str());
  ctx.artifact().provenance.fault_plan = scaled_plan.ToString();

  auto base_options = [&](uint64_t seed) {
    GoalScenarioOptions options;
    options.seed = seed;
    options.initial_joules = initial_joules;
    options.goal = odsim::SimDuration::Seconds(goal_seconds);
    options.learned_model = true;
    return options;
  };

  odutil::Table table(
      "Self-constructive power model (13,500 J, 1320 s goal; 3 trials; "
      "means)");
  table.SetHeader({"Cell", "Goal Met", "Residual %", "Est Err %", "Conv",
                   "Learn/Acct", "Coef Err", "Adapts"});

  odharness::TrialSet calibrated =
      ctx.RunTrials("calibrated", 3, 53000, [&](uint64_t seed) {
        return LearnedCell(base_options(seed));
      });
  odharness::TrialSet scaled =
      ctx.RunTrials("scaled gauge 1.1x", 3, 53100, [&](uint64_t seed) {
        GoalScenarioOptions options = base_options(seed);
        options.fault_plan = scaled_plan;
        return LearnedCell(options);
      });
  odharness::TrialSet withheld =
      ctx.RunTrials("calibration withheld", 3, 53200, [&](uint64_t seed) {
        GoalScenarioOptions options = base_options(seed);
        options.use_smart_battery = true;
        options.director.learned_primary_when_converged = true;
        // The 1 Hz quantized gauge never beats the multimeter's 8% window
        // mismatch; 20% is the handoff bar for this deployment.
        options.learned_config.converged_error_fraction = 0.20;
        return LearnedCell(options);
      });

  struct Row {
    const char* label;
    const odharness::TrialSet* set;
  };
  for (const Row& row : {Row{"calibrated", &calibrated},
                         Row{"scaled gauge 1.1x", &scaled},
                         Row{"calibration withheld", &withheld}}) {
    const odharness::TrialSet& set = *row.set;
    table.AddRow({row.label, odutil::Table::Pct(set.Mean("goal_met"), 0),
                  odutil::Table::Num(set.Mean("residual_pct"), 1),
                  odutil::Table::Num(set.Mean("residual_error_pct"), 2),
                  odutil::Table::Pct(set.Mean("converged"), 0),
                  odutil::Table::Num(set.Mean("learned_ratio"), 3),
                  odutil::Table::Num(set.Mean("recovery_error"), 3),
                  odutil::Table::Num(set.Mean("adaptations"), 1)});
  }
  table.Print();

  int rc = 0;
  // The calibrated fit must converge and its energy integral must track
  // the analytic accounting.
  if (calibrated.Mean("converged") < 1.0 ||
      std::abs(calibrated.Mean("learned_ratio") - 1.0) > 0.10) {
    std::printf("FAIL: calibrated fit did not track the accounting "
                "(converged %.0f%%, learned/accounted %.3f)\n",
                100.0 * calibrated.Mean("converged"),
                calibrated.Mean("learned_ratio"));
    rc = 1;
  }
  // The scaled-gauge fit must mirror the delivered stream: its energy
  // scaled by ~1.1x relative to the calibrated cell, not unchanged (which
  // would mean the model somehow saw the analytic accounting).
  const double ratio_lift =
      scaled.Mean("learned_ratio") / calibrated.Mean("learned_ratio");
  if (ratio_lift < 1.07 || ratio_lift > 1.13) {
    std::printf("FAIL: scaled-gauge energy should scale by ~1.1x the "
                "calibrated cell's (got %.3f)\n",
                ratio_lift);
    rc = 1;
  }
  // The withheld deployment must hand over and stay within 15% attainment
  // of the calibrated baseline.
  if (withheld.Mean("learned_primary") < 1.0 ||
      withheld.Mean("residual_error_pct") > 15.0) {
    std::printf("FAIL: calibration-withheld handoff missing (%.0f%%) or "
                "learned residual estimate off by %.2f%% of supply\n",
                100.0 * withheld.Mean("learned_primary"),
                withheld.Mean("residual_error_pct"));
    rc = 1;
  }
  const double attainment_gap =
      std::abs(withheld.Mean("residual_pct") - calibrated.Mean("residual_pct"));
  if (withheld.Mean("goal_met") != calibrated.Mean("goal_met") ||
      attainment_gap > 15.0) {
    std::printf("FAIL: withheld attainment (goal %.0f%%, residual %.1f%%) "
                "outside 15%% of calibrated (goal %.0f%%, residual %.1f%%)\n",
                100.0 * withheld.Mean("goal_met"),
                withheld.Mean("residual_pct"),
                100.0 * calibrated.Mean("goal_met"),
                calibrated.Mean("residual_pct"));
    rc = 1;
  }
  std::printf(
      "Expected shape: the calibrated fit converges and its energy integral\n"
      "tracks the accounting within 10%%; the scaled-gauge fit comes out\n"
      "~1.1x hotter because it can only see the delivered stream; the\n"
      "withheld deployment hands over after convergence and tracks the\n"
      "calibrated baseline's attainment.  Coefficient recovery is reported\n"
      "per cell but identifiable only up to workload collinearity — the\n"
      "learned_model_test suite pins exact recovery under orthogonal\n"
      "excitation.\n");
  return rc;
}
