// Goal attainment under the disturbance ladder: the Figure 20 goal
// scenario (1320 s goal on 13,500 J) run under fault plans of increasing
// severity, including the telemetry kinds that attack the director's own
// power feed.  The measured claim is disturbance-hardened goal direction:
// network and server faults cost energy but not the goal; telemetry
// faults trip the controller's safe mode (clamp + planning freeze) and
// recover, and the director's residual estimate stays within a bounded
// error of ground truth because gaps and implausible readings are
// re-counted at the smoothed demand rate.
//
// With --fault-plan the ladder is replaced by that single plan (label
// "custom"), which is how a perturbation lands in a diffable artifact.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"
#include "src/fault/fault_plan.h"
#include "src/harness/sweep_runner.h"
#include "src/util/check.h"
#include "src/util/table.h"

using namespace odapps;

namespace {

struct Rung {
  const char* label;
  const char* spec;  // odfault plan grammar; "" = clean baseline.
};

}  // namespace

ODBENCH_EXPERIMENT(goal_fault_sweep,
                   "Goal attainment under fault plans of increasing "
                   "severity, including telemetry faults") {
  // Severity ladder: clean baseline, the five environment kinds, the four
  // telemetry kinds, then two storms.  Every window sits inside the 1320 s
  // goal with slack after it, so safe-mode recovery is part of the record.
  std::vector<Rung> rungs = {
      {"clean", ""},
      {"loss burst", "loss@200+300=0.3"},
      {"bandwidth crash", "bandwidth@200+400=0.1"},
      {"link outage", "outage@300+60"},
      {"server stall", "stall@300+120"},
      {"disk spike", "disk@200+400=8"},
      {"sample dropout", "dropout@300+90"},
      {"frozen feed", "stale@300+90"},
      {"nan feed", "nan@300+60"},
      {"gauge drift", "gauge@200+200=3"},
      {"telemetry storm",
       "dropout@200+60;nan@300+40;stale@400+60;gauge@500+120=3"},
      {"full storm",
       "bandwidth@150+200=0.2;loss@250+150=0.3;outage@400+60;stall@500+90;"
       "disk@200+400=4;dropout@600+60;gauge@700+150=3;nan@850+40"},
  };
  if (!ctx.options().fault_plan.empty()) {
    rungs = {{"custom", ctx.options().fault_plan.c_str()}};
  }

  const double initial_joules = 13500.0;
  const double goal_seconds = 1320.0;

  // The plan(s) this artifact was disturbed by, in canonical spelling.
  std::vector<odfault::FaultPlan> plans(rungs.size());
  std::string stamped;
  for (size_t i = 0; i < rungs.size(); ++i) {
    std::string error;
    OD_CHECK_MSG(odfault::FaultPlan::Parse(rungs[i].spec, &plans[i], &error),
                 error.c_str());
    if (plans[i].empty()) {
      continue;
    }
    if (!stamped.empty()) {
      stamped += " | ";
    }
    stamped += plans[i].ToString();
  }
  ctx.artifact().provenance.fault_plan = stamped;

  odutil::Table table(
      "Goal-directed adaptation under faults (13,500 J, 1320 s goal; "
      "3 trials per rung; means)");
  table.SetHeader({"Plan", "Goal Met", "Residual %", "Est Err %", "Safe s",
                   "Safe #", "Invalid", "Clamps", "Adapts"});

  // Rungs are independent; submit them all as sweep cells so the ladder
  // runs wide under --jobs instead of rung-by-rung.
  odharness::Sweep sweep(ctx);
  std::vector<size_t> cells(rungs.size());
  for (size_t i = 0; i < rungs.size(); ++i) {
    const odfault::FaultPlan& plan = plans[i];
    cells[i] = sweep.AddTrials(rungs[i].label, 3, 47000, [&plan, initial_joules,
                                                          goal_seconds](
                                                             uint64_t seed) {
      GoalScenarioOptions options;
      options.seed = seed;
      options.initial_joules = initial_joules;
      options.goal = odsim::SimDuration::Seconds(goal_seconds);
      options.fault_plan = plan;
      GoalScenarioResult result = RunGoalScenario(options);
      odharness::TrialSample sample;
      sample.value = result.residual_joules;
      sample.breakdown["goal_met"] = result.goal_met ? 1.0 : 0.0;
      sample.breakdown["residual_pct"] =
          100.0 * result.residual_joules / initial_joules;
      // How far telemetry faults dragged the director's residual estimate
      // from ground truth, as a fraction of the whole supply.
      sample.breakdown["residual_error_pct"] =
          100.0 *
          std::abs(result.estimated_residual_joules - result.residual_joules) /
          initial_joules;
      sample.breakdown["safe_mode_seconds"] = result.safe_mode_seconds;
      sample.breakdown["safe_mode_entries"] = result.safe_mode_entries;
      sample.breakdown["invalid_samples"] = result.invalid_samples;
      sample.breakdown["telemetry_gaps"] = result.telemetry_gaps;
      sample.breakdown["outage_clamps"] = result.outage_clamps;
      sample.breakdown["adaptations"] = result.total_adaptations;
      sample.breakdown["elapsed_seconds"] = result.elapsed_seconds;
      return sample;
    });
  }
  sweep.Run();

  int worst = 0;
  for (size_t i = 0; i < rungs.size(); ++i) {
    const odharness::TrialSet& set = sweep.Set(cells[i]);
    // The non-negotiable part of the claim: every run terminates (no rung
    // may wedge the scenario into its overrun valve), and the residual
    // estimate error stays bounded.  The clean baseline already carries a
    // few percent of multimeter measurement bias; telemetry faults add a
    // little conservative error on top because corrupted spans are
    // re-counted at the pre-fault smoothed rate while safe mode actually
    // runs cheaper.  An uncorrected gauge fault would be off by a factor
    // of the drift magnitude — far past this bound.
    const bool terminated =
        set.Mean("elapsed_seconds") < goal_seconds + 590.0;
    const bool bounded = set.Mean("residual_error_pct") <= 10.0;
    if (!terminated || !bounded) {
      worst = 1;
    }
    table.AddRow({rungs[i].label, odutil::Table::Pct(set.Mean("goal_met"), 0),
                  odutil::Table::Num(set.Mean("residual_pct"), 1),
                  odutil::Table::Num(set.Mean("residual_error_pct"), 2),
                  odutil::Table::Num(set.Mean("safe_mode_seconds"), 1),
                  odutil::Table::Num(set.Mean("safe_mode_entries"), 1),
                  odutil::Table::Num(set.Mean("invalid_samples"), 1),
                  odutil::Table::Num(set.Mean("outage_clamps"), 1),
                  odutil::Table::Num(set.Mean("adaptations"), 1)});
  }
  table.Print();
  std::printf(
      "Expected shape: the clean rung matches fig20's 1320 s row; network\n"
      "rungs cost energy but keep the goal; telemetry rungs show safe-mode\n"
      "time covering the fault window plus recovery hysteresis.  The\n"
      "estimate error column stays near the clean baseline because gaps\n"
      "and implausible readings are re-counted at the smoothed demand\n"
      "rate; telemetry rungs err slightly conservative since that rate is\n"
      "the pre-fault one while safe mode actually runs cheaper.\n");
  return worst;
}
