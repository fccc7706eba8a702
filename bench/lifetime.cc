// Untethered lifetime of the Section 5 workload pinned at highest and
// lowest fidelity (the paper's "19:27 vs 27:06" framing numbers, on our
// calibrated 13,500 J supply).  Previously a subcommand of odyssey_cli;
// now a first-class experiment so the extension ratio lands in artifacts.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/apps/goal_scenario.h"

using namespace odapps;

ODBENCH_EXPERIMENT(lifetime,
                   "Untethered lifetime of the Section 5 workload pinned "
                   "at highest vs lowest fidelity") {
  odfault::FaultPlan plan = odbench::PlanFromContext(ctx);
  if (!plan.empty()) {
    std::printf("Disturbance plan: %s\n", plan.ToString().c_str());
  }
  odutil::Table table(
      "Pinned-fidelity lifetime (13,500 J supply; mean of 3 seeds ±90% CI)");
  table.SetHeader({"Fidelity", "Lifetime (s)", "Lifetime (min)",
                   "Average draw (W)"});

  double means[2] = {0.0, 0.0};
  for (bool lowest : {false, true}) {
    odharness::TrialSet set = ctx.RunTrials(
        lowest ? "lowest" : "highest", 3, 999, [&](uint64_t seed) {
          return odharness::TrialSample{
              MeasurePinnedLifetime(13500.0, lowest, seed, plan)};
        });
    means[lowest ? 1 : 0] = set.summary.mean;
    table.AddRow({lowest ? "Lowest" : "Highest",
                  odbench::MeanCi(set.summary, 0),
                  odutil::Table::Num(set.summary.mean / 60.0, 1),
                  odutil::Table::Num(13500.0 / set.summary.mean, 2)});
  }
  table.Print();
  ctx.Note("extension_ratio", means[1] / means[0]);
  std::printf(
      "Lowest fidelity extends the workload's lifetime %.0f%% (paper: 39%%\n"
      "on a 12,000 J supply).\n",
      100.0 * (means[1] / means[0] - 1.0));
  return 0;
}
