// odyssey_cli — command-line front end for the simulator.
//
//   odyssey_cli power-table
//       Print the ThinkPad 560X component power table (Figure 4).
//   odyssey_cli profile [--seconds N]
//       PowerScope profile of a video session (Figure 2 format).
//   odyssey_cli lifetime [--joules J] [--lowest]
//       Untethered lifetime of the Section 5 workload, pinned at highest or
//       lowest fidelity.
//   odyssey_cli goal [--minutes M] [--joules J] [--seed S] [--bursty]
//               [--loss P] [--smart-battery] [--extend-at-min T --extend-min E]
//       Run goal-directed adaptation and report the outcome.
//
// Flag parsing is the shared odharness::Flags (the same parser odbench
// uses), not a hand-rolled strcmp loop.

#include <cstdio>
#include <string>

#include "src/apps/goal_scenario.h"
#include "src/apps/testbed.h"
#include "src/harness/flags.h"
#include "src/powerscope/profiler.h"

namespace {

// Longest simulated span a flag may name: 1e9 s keeps every simulated time
// an exact int64 microsecond count.
constexpr double kMaxSeconds = 1e9;
constexpr double kMaxMinutes = kMaxSeconds / 60.0;

int PowerTable() {
  odsim::Simulator sim;
  auto laptop = odpower::MakeThinkPad560X(&sim);
  const odpower::ThinkPad560XSpec& spec = laptop->spec();
  std::printf("IBM ThinkPad 560X power model (Figure 4):\n");
  std::printf("  Display   bright %.2f W, dim %.2f W\n", spec.display_bright,
              spec.display_dim);
  std::printf("  WaveLAN   tx %.2f, rx %.2f, idle %.2f, standby %.2f W\n",
              spec.wavelan_transmit, spec.wavelan_receive, spec.wavelan_idle,
              spec.wavelan_standby);
  std::printf("  Disk      access %.2f, idle %.2f, standby %.2f W\n",
              spec.disk_access, spec.disk_idle, spec.disk_standby);
  std::printf("  CPU       busy %.2f W (halt 0)\n", spec.cpu_busy);
  std::printf("  Other     %.2f W\n", spec.other);
  std::printf("  Background (dim + standby) = %.2f W\n",
              laptop->BackgroundPowerWatts());
  return 0;
}

int Profile(const odharness::Flags& flags) {
  double seconds = flags.GetPositiveDouble("seconds", 60.0, kMaxSeconds);
  odapps::TestBed bed;
  odscope::Profiler profiler(&bed.sim(), &bed.laptop().machine());
  profiler.Start();
  bool finished = false;
  bed.video().PlaySegment(odapps::StandardVideoClips()[0],
                          odsim::SimDuration::Seconds(seconds),
                          [&finished] { finished = true; });
  bed.sim().RunUntil(odsim::SimTime::Seconds(seconds + 10));
  profiler.Stop();
  if (!finished) {
    std::fprintf(stderr, "workload did not finish\n");
    return 1;
  }
  std::printf("%s", profiler.Correlate().Format("xanim").c_str());
  return 0;
}

int Lifetime(const odharness::Flags& flags) {
  double joules = flags.GetPositiveDouble("joules", 13500.0);
  bool lowest = flags.Has("lowest");
  double seconds = odapps::MeasurePinnedLifetime(joules, lowest, 1);
  std::printf("%s fidelity on %.0f J: %.0f s (%d:%02d)\n",
              lowest ? "lowest" : "highest", joules, seconds,
              static_cast<int>(seconds) / 60, static_cast<int>(seconds) % 60);
  return 0;
}

int Goal(const odharness::Flags& flags) {
  odapps::GoalScenarioOptions options;
  options.initial_joules = flags.GetPositiveDouble("joules", 13500.0);
  options.goal = odsim::SimDuration::Minutes(
      flags.GetPositiveDouble("minutes", 22.0, kMaxMinutes));
  options.seed = flags.GetUint64("seed", 1);
  options.bursty = flags.Has("bursty");
  options.use_smart_battery = flags.Has("smart-battery");
  options.rpc_loss_probability = flags.GetNonNegativeDouble("loss", 0.0);
  if (options.rpc_loss_probability >= 1.0) {
    throw odharness::FlagError("--loss must be < 1");
  }
  double extend_at = flags.GetNonNegativeDouble("extend-at-min", 0.0,
                                                kMaxMinutes);
  double extend_by = flags.GetNonNegativeDouble("extend-min", 0.0,
                                                kMaxMinutes);
  if (extend_at > 0.0 && extend_by > 0.0) {
    options.extend_at = odsim::SimDuration::Minutes(extend_at);
    options.extend_by = odsim::SimDuration::Minutes(extend_by);
  }

  odapps::GoalScenarioResult result = odapps::RunGoalScenario(options);
  std::printf("%s after %.0f s; residual %.0f J (%.1f%% of %.0f J)\n",
              result.goal_met ? "GOAL MET" : "SUPPLY EXHAUSTED",
              result.elapsed_seconds, result.residual_joules,
              100.0 * result.residual_joules / options.initial_joules,
              options.initial_joules);
  for (const auto& [app, count] : result.adaptations) {
    std::printf("  %-7s %3d adaptations, final level %d\n", app.c_str(), count,
                result.final_fidelity.at(app));
  }
  return result.goal_met ? 0 : 2;
}

int Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s <command> [options]\n"
      "  power-table\n"
      "  profile  [--seconds N]\n"
      "  lifetime [--joules J] [--lowest]\n"
      "  goal     [--minutes M] [--joules J] [--seed S] [--bursty]\n"
      "           [--loss P] [--smart-battery]\n"
      "           [--extend-at-min T --extend-min E]\n",
      prog);
  return 64;
}

int Main(int argc, char** argv) {
  odharness::Flags flags(argc, argv);
  if (flags.positional().size() != 1) {
    return Usage(argv[0]);
  }
  const std::string& command = flags.positional()[0];

  std::string error;
  bool flags_ok = true;
  if (command == "power-table") {
    flags_ok = flags.Validate({}, {}, &error);
  } else if (command == "profile") {
    flags_ok = flags.Validate({"seconds"}, {}, &error);
  } else if (command == "lifetime") {
    flags_ok = flags.Validate({"joules"}, {"lowest"}, &error);
  } else if (command == "goal") {
    flags_ok = flags.Validate(
        {"minutes", "joules", "seed", "loss", "extend-at-min", "extend-min"},
        {"bursty", "smart-battery"}, &error);
  } else {
    return Usage(argv[0]);
  }
  if (!flags_ok) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return Usage(argv[0]);
  }

  if (command == "power-table") {
    return PowerTable();
  }
  if (command == "profile") {
    return Profile(flags);
  }
  if (command == "lifetime") {
    return Lifetime(flags);
  }
  return Goal(flags);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const odharness::FlagError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return Usage(argv[0]);
  }
}
