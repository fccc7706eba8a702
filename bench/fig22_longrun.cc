// Regenerates Figure 22: longer-duration goal-directed adaptation — a
// 90,000 J supply, an initial goal of 2:45 hours extended by 30 minutes at
// the end of the first hour, and a stochastic bursty workload (Section 5.4);
// five trials with different random seeds.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"
#include "src/util/table.h"

using namespace odapps;

ODBENCH_EXPERIMENT(fig22_longrun,
                   "Figure 22: longer-duration goal-directed adaptation "
                   "(bursty workload, goal extension)") {
  odfault::FaultPlan plan = odbench::PlanFromContext(ctx);
  if (!plan.empty()) {
    std::printf("Disturbance plan: %s\n", plan.ToString().c_str());
  }
  odutil::Table table(
      "Figure 22: Longer-duration goal-directed adaptation (90,000 J; goal "
      "2:45 h, +30 min at the end of the first hour; bursty workload)");
  table.SetHeader({"Trial", "Goal Met", "Residual (J)", "Adapt Speech",
                   "Adapt Video", "Adapt Map", "Adapt Web"});

  odharness::TrialSet set = ctx.RunTrials("trials", 5, 22001, [&plan](uint64_t seed) {
    GoalScenarioOptions options;
    options.bursty = true;
    options.initial_joules = 90000.0;
    options.goal = odsim::SimDuration::Seconds(9900);  // 2:45 hours.
    options.extend_at = odsim::SimDuration::Seconds(3600);
    options.extend_by = odsim::SimDuration::Seconds(1800);
    options.seed = seed;
    options.fault_plan = plan;
    GoalScenarioResult result = RunGoalScenario(options);
    odharness::TrialSample sample;
    sample.value = result.residual_joules;
    sample.breakdown["goal_met"] = result.goal_met ? 1.0 : 0.0;
    for (const auto& [app, count] : result.adaptations) {
      sample.breakdown[app] = count;
    }
    return sample;
  });

  for (size_t i = 0; i < set.trials.size(); ++i) {
    const odharness::TrialSample& trial = set.trials[i];
    auto count = [&](const char* app) {
      auto it = trial.breakdown.find(app);
      return std::to_string(
          static_cast<int>(it != trial.breakdown.end() ? it->second : 0.0));
    };
    table.AddRow({std::to_string(i + 1),
                  trial.breakdown.at("goal_met") > 0.0 ? "Yes" : "No",
                  odutil::Table::Num(trial.value, 0), count("Speech"),
                  count("Video"), count("Map"), count("Web")});
  }
  table.Print();
  std::printf(
      "Paper: the goal was met in all five trials despite the bursty\n"
      "workload; four of five trials ended with residual energy below 1%% of\n"
      "the supply (the fifth at 2.8%%), and the longer horizon plus larger\n"
      "hysteresis zone yields fewer adaptations than Figure 20.\n");
  return 0;
}
