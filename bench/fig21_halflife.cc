// Regenerates Figure 21: sensitivity of goal-directed adaptation to the
// smoothing half-life (1%, 5%, 10%, 15% of time remaining), on a 13,000 J
// supply: goal-met percentage, residual energy, and adaptation count.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"
#include "src/util/stats.h"
#include "src/util/table.h"

using namespace odapps;

ODBENCH_EXPERIMENT(fig21_halflife,
                   "Figure 21: sensitivity to the smoothing half-life "
                   "(1-15% of time remaining)") {
  odfault::FaultPlan plan = odbench::PlanFromContext(ctx);
  if (!plan.empty()) {
    std::printf("Disturbance plan: %s\n", plan.ToString().c_str());
  }
  odutil::Table table(
      "Figure 21: Sensitivity to half-life (13,000 J supply, 1320 s goal; "
      "5 trials per row; mean (stddev))");
  table.SetHeader({"Half-Life", "Goal Met", "Residual (J)", "Adaptations"});

  for (double fraction : {0.01, 0.05, 0.10, 0.15}) {
    odharness::TrialSet set = ctx.RunTrials(
        "half_life_" + odutil::Table::Num(fraction, 2), 5, 21000,
        [&](uint64_t seed) {
          GoalScenarioOptions options;
          options.initial_joules = 13000.0;
          options.goal = odsim::SimDuration::Seconds(1320);
          options.director.half_life_fraction = fraction;
          options.seed = seed;
          options.fault_plan = plan;
          GoalScenarioResult result = RunGoalScenario(options);
          odharness::TrialSample sample;
          sample.value = result.residual_joules;
          sample.breakdown["goal_met"] = result.goal_met ? 1.0 : 0.0;
          sample.breakdown["adaptations"] = result.total_adaptations;
          return sample;
        });
    const odutil::Summary& adaptations =
        set.breakdown_summaries.at("adaptations");
    table.AddRow({odutil::Table::Num(fraction, 2),
                  odutil::Table::Pct(set.Mean("goal_met"), 0),
                  odutil::Table::MeanStd(set.summary.mean, set.summary.stddev, 1),
                  odutil::Table::MeanStd(adaptations.mean, adaptations.stddev,
                                         1)});
  }
  table.Print();
  std::printf(
      "Paper: a 1%% half-life is clearly too unstable — the system produces\n"
      "the largest residue and adapts excessively; as the half-life grows the\n"
      "system becomes more stable, at the risk of insufficient agility (the\n"
      "paper's 15%% row missed its goal in one trial).  10%% is the chosen\n"
      "operating point.\n");
  return 0;
}
