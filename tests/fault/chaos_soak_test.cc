// Seeded chaos soak (`ctest -L chaos`): deterministic fault plans drive
// the full goal-directed scenario under invariant checks.  Half the seeds
// draw purely random plans (2-6 overlapping windows across every kind the
// grammar knows); the other half draw *scenario-derived* plans — a named
// user-behavior scenario supplies both the workload timeline and its
// coverage-gap environment, and GenerateScenarioChaosPlan layers realistic
// telemetry noise on top.  Either way the run must preserve the
// simulator's physical invariants no matter what the plan does:
//
//   * energy conservation: total accounted energy equals the sum of
//     per-component energy plus the synergy term, at every probe tick;
//   * monotone battery drain: the true residual never increases;
//   * no negative component power;
//   * termination: the scenario ends (goal met or supply exhausted)
//     before the overrun safety valve, for every plan;
//   * controller health: the director never ends a run wedged in safe
//     mode — every fault window leaves recovery slack behind it.
//
// Every run also records its power trace (the --trace path), and the trace
// must stay well-formed under chaos: monotone segment times, finite
// non-negative draws, and an integral that reproduces the accounting total.
//
// The scenario-mode gauge noise sits inside the drift sentinel's
// divergence band by construction, so any drift episode those runs record
// is a false positive; a final test bounds their rate.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/apps/goal_scenario.h"
#include "src/fault/chaos.h"
#include "src/fault/fault_plan.h"
#include "src/scenario/driver.h"
#include "src/scenario/library.h"
#include "src/trace/power_trace.h"

namespace {

// Runs one goal-directed scenario under `options` (seed, budget, goal, and
// fault plan already set) and checks every physical invariant above.
// `plan_text` labels failures with the repro spelling.
odapps::GoalScenarioResult SoakRun(odapps::GoalScenarioOptions options,
                                   const std::string& plan_text) {
  options.trace = true;
  // The soak runs the full robustness stack: the learned second estimator
  // and the drift sentinel are armed, so gauge faults — step and slow ramp
  // alike — exercise the cross-check, and its residual corrections must
  // preserve every invariant below.
  options.learned_model = true;
  options.director.drift_sentinel.enabled = true;

  double last_residual = options.initial_joules;
  int ticks = 0;
  options.tick_probe = [&](odapps::TestBed& bed,
                           odpower::EnergySupply& supply) {
    odsim::SimTime now = bed.sim().Now();
    odpower::EnergyAccounting& acct = bed.laptop().accounting();
    odpower::Machine& machine = bed.laptop().machine();

    // Energy conservation: the whole is the sum of its parts.
    double total = acct.TotalJoules(now);
    double parts = acct.SynergyJoules(now);
    for (int i = 0; i < machine.component_count(); ++i) {
      EXPECT_GE(machine.component(i).power(), 0.0)
          << machine.component(i).name() << " draws negative power at t="
          << now.seconds();
      parts += acct.ComponentJoules(i, now);
    }
    EXPECT_NEAR(total, parts, 1e-6 * std::max(1.0, total))
        << "accounting leak at t=" << now.seconds();

    // Monotone drain: no fault may put energy back into the battery.
    double residual = supply.ResidualJoules(now);
    EXPECT_LE(residual, last_residual + 1e-9)
        << "residual rose at t=" << now.seconds();
    EXPECT_GE(residual, 0.0);
    last_residual = residual;
    ++ticks;
  };

  odapps::GoalScenarioResult result = odapps::RunGoalScenario(options);

  // Termination: the run decided its outcome and never hit the overrun
  // safety valve.
  EXPECT_NE(result.outcome, odenergy::GoalOutcome::kRunning)
      << "plan " << plan_text;
  EXPECT_LE(result.elapsed_seconds,
            options.goal.seconds() + options.max_overrun.seconds() - 1.0)
      << "plan " << plan_text;
  EXPECT_GT(ticks, 0);

  // Controller health: every fault window leaves recovery slack, so a run
  // still wedged in safe mode at the end is a liveness bug.
  EXPECT_NE(result.final_health, odenergy::ControllerHealth::kSafeMode)
      << "plan " << plan_text;

  // The director's residual estimate stayed finite and sane.
  EXPECT_TRUE(std::isfinite(result.estimated_residual_joules));
  EXPECT_GE(result.estimated_residual_joules, 0.0);
  EXPECT_LE(result.estimated_residual_joules, options.initial_joules);

  // Drift-sentinel bookkeeping stayed coherent no matter what the plan
  // threw at the gauge: episodes imply a detection time, time under
  // verdict is bounded by the run, and the correction never went
  // non-finite.
  EXPECT_TRUE(std::isfinite(result.drift_correction_joules));
  EXPECT_GE(result.drift_seconds, 0.0);
  EXPECT_LE(result.drift_seconds, result.elapsed_seconds + 1e-9);
  if (result.drift_entries > 0) {
    EXPECT_TRUE(result.first_drift_detected_seconds.has_value());
    if (result.first_drift_detected_seconds.has_value()) {
      EXPECT_GE(*result.first_drift_detected_seconds, 0.0);
      EXPECT_LE(*result.first_drift_detected_seconds, result.elapsed_seconds);
    }
  } else {
    EXPECT_FALSE(result.first_drift_detected_seconds.has_value());
  }

  // The recorded power trace survived the chaos intact: monotone and RLE
  // by construction (Validate), every draw finite and non-negative, and
  // its integral reproduces the accounting total — faults may reshape the
  // profile but must not leak energy between the two views.
  EXPECT_NE(result.trace, nullptr) << "plan " << plan_text;
  if (result.trace != nullptr) {
    std::string trace_error;
    EXPECT_TRUE(result.trace->Validate(&trace_error))
        << trace_error << " under plan " << plan_text;
    for (const odtrace::ComponentTrace& component : result.trace->components) {
      for (const odtrace::TraceSegment& segment : component.segments) {
        EXPECT_TRUE(std::isfinite(segment.watts)) << component.name;
        EXPECT_GE(segment.watts, 0.0)
            << component.name << " at t=" << segment.start_us * 1e-6;
      }
    }
    EXPECT_NEAR(result.trace->TotalJoules(), result.accounted_joules, 1e-9)
        << "trace/accounting disagreement under plan " << plan_text;
  }
  return result;
}

// Builds the scenario-driven soak options for one seed: the scenario's
// behavior timeline as workload, its coverage gaps plus seeded telemetry
// noise as the plan.
odapps::GoalScenarioOptions ScenarioSoakOptions(uint64_t seed,
                                                const odscenario::Scenario&
                                                    scenario,
                                                odfault::FaultPlan* plan_out) {
  odfault::FaultPlan plan = odfault::GenerateScenarioChaosPlan(
      seed, scenario.DerivedFaultPlan(), scenario.Duration().seconds());
  odapps::GoalScenarioOptions options;
  options.seed = seed;
  options.goal = scenario.Duration();
  // A 12 W allowance: busy scenarios adapt but complete, so the telemetry
  // noise windows are actually lived through.
  options.initial_joules = 12.0 * scenario.Duration().seconds();
  // The plan above already carries the scenario's gap windows; deriving
  // the environment again would double-disturb the run.
  odscenario::ApplyScenarioWorkload(scenario, &options, nullptr,
                                    /*derive_environment=*/false);
  options.fault_plan = plan;
  if (plan_out != nullptr) {
    *plan_out = plan;
  }
  return options;
}

class ChaosSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSoakTest, InvariantsHoldUnderRandomPlan) {
  const uint64_t seed = 0xC0FFEEULL + static_cast<uint64_t>(GetParam());
  odfault::FaultPlan plan = odfault::GenerateChaosPlan(seed);
  ASSERT_FALSE(plan.empty());

  // The generated plan must survive the canonical round-trip: a plan we
  // cannot replay from its artifact stamp is not a reproducible test.
  odfault::FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(odfault::FaultPlan::Parse(plan.ToString(), &reparsed, &error))
      << error;
  EXPECT_EQ(plan.ToString(), reparsed.ToString());

  odapps::GoalScenarioOptions options;
  options.seed = seed;
  options.initial_joules = 4000.0;
  options.goal = odsim::SimDuration::Seconds(300);  // Covers the default
                                                    // 240 s chaos horizon.
  options.fault_plan = plan;
  SoakRun(std::move(options), plan.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest, ::testing::Range(0, 25));

class ScenarioChaosSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioChaosSoakTest, InvariantsHoldUnderScenarioPlan) {
  const uint64_t seed = 0xC0FFEEULL + static_cast<uint64_t>(GetParam());
  const auto& library = odscenario::ScenarioLibrary();
  const odscenario::Scenario& scenario =
      library[static_cast<size_t>(GetParam()) % library.size()];

  odfault::FaultPlan plan;
  odapps::GoalScenarioOptions options =
      ScenarioSoakOptions(seed, scenario, &plan);

  // The layered plan replays from its canonical stamp too.
  odfault::FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(odfault::FaultPlan::Parse(plan.ToString(), &reparsed, &error))
      << error;
  EXPECT_EQ(plan.ToString(), reparsed.ToString());

  SoakRun(std::move(options),
          scenario.name + " + " + plan.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioChaosSoakTest,
                         ::testing::Range(25, 50));

// The scenario-mode gauge noise stays inside the sentinel's divergence
// band, so every drift episode under these plans is a false positive.
// Their rate must stay bounded — a sentinel that cries wolf under
// realistic gauge wobble would be disarmed in practice.  One test (not a
// parameterized family) so the rate is computed over all seeds in one
// process.
TEST(ScenarioChaosFalsePositives, DriftRateBoundedUnderRealisticNoise) {
  const auto& library = odscenario::ScenarioLibrary();
  const int kRuns = 10;
  int false_positives = 0;
  for (int i = 0; i < kRuns; ++i) {
    const uint64_t seed = 0xFA15EULL + static_cast<uint64_t>(i);
    const odscenario::Scenario& scenario =
        library[static_cast<size_t>(i) % library.size()];
    odfault::FaultPlan plan;
    odapps::GoalScenarioOptions options =
        ScenarioSoakOptions(seed, scenario, &plan);
    options.trace = false;
    options.learned_model = true;
    options.director.drift_sentinel.enabled = true;
    odapps::GoalScenarioResult result = odapps::RunGoalScenario(options);
    if (result.drift_entries > 0) {
      ++false_positives;
    }
  }
  EXPECT_LE(false_positives, 2)
      << false_positives << "/" << kRuns
      << " runs flagged drift under in-band gauge noise";
}

}  // namespace
