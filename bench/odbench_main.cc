// odbench — the single runner binary behind every experiment in the
// evaluation suite.  Replaces the per-figure bench mains: each former main
// is now a registration stub (see ODBENCH_EXPERIMENT) and this binary
// lists/runs them one after another, parallelizes their trials and sweep
// cells, and writes a JSON artifact per experiment.
//
//   odbench list
//       Show every registered experiment with its description.
//   odbench run <name|all> [--trials N] [--seed S] [--jobs J] [--out DIR]
//       Run one experiment (unique prefixes accepted: `run fig04`) or all
//       of them.  --trials/--seed override each trial set's paper defaults;
//       --jobs bounds the worker threads of each experiment's trial pools
//       and sweep cells (results are bit-identical to --jobs 1); --out
//       selects the artifact directory (default "artifacts", "none"
//       disables).  --compact writes single-line artifact JSON (the
//       committed golden fixtures use it); --fault-plan offers an odfault
//       disturbance spec (see src/fault/fault_plan.h) to fault-aware
//       experiments; --scenario restricts scenario-aware experiments
//       (scenario_sweep) to one named user-behavior scenario (see
//       src/scenario/library.h).  Flags and positionals may be
//       interleaved: `odbench run --jobs 4 all` works.
//   odbench diff <a.json> <b.json> [--rtol R] [--atol A]
//       Structurally compare two run artifacts (sets by label, notes by
//       key).  Exit 0: identical measurements; 1: numeric drift, all
//       within |a-b| <= atol + rtol*max(|a|,|b|); 2: out-of-tolerance or
//       structural changes; 64: usage; 66: unreadable artifact.
//   odbench diff --traces <a.trace.json> <b.trace.json>
//           [--rtol R] [--atol A] [--max-shift S]
//       Shape-level comparison of two power-trace documents (written by
//       `run --trace`): step functions are walked along merged segment
//       boundaries; divergent windows no longer than --max-shift seconds
//       count as drift (boundary jitter), longer ones as regression.  Same
//       exit codes as the scalar diff.

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/calibration.h"
#include "src/fault/fault_plan.h"
#include "src/fault/window_spec.h"
#include "src/harness/artifact_diff.h"
#include "src/harness/flags.h"
#include "src/harness/registry.h"
#include "src/harness/scheduler.h"
#include "src/scenario/library.h"
#include "src/trace/trace_diff.h"

namespace {

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s run <name|all> [--trials N] [--seed S] [--jobs J]"
               " [--out DIR]\n"
               "           [--compact] [--fault-plan SPEC] [--trace]"
               " [--scenario NAME]\n"
               "       %s diff <a.json> <b.json> [--rtol R] [--atol A]\n"
               "       %s diff --traces <a.trace.json> <b.trace.json>"
               " [--rtol R] [--atol A]\n"
               "           [--max-shift SECONDS]\n",
               prog, prog, prog, prog);
  return 64;
}

int List() {
  const auto experiments = odharness::ExperimentRegistry::Instance().List();
  size_t width = 0;
  for (const odharness::Experiment* experiment : experiments) {
    width = std::max(width, experiment->name.size());
  }
  for (const odharness::Experiment* experiment : experiments) {
    std::printf("%-*s  %s\n", static_cast<int>(width),
                experiment->name.c_str(), experiment->description.c_str());
  }
  std::printf("(%zu experiments)\n", experiments.size());
  return 0;
}

int DiffTraces(const odharness::Flags& flags, const char* prog) {
  const auto& positional = flags.positional();
  // The flag grammar binds a bare word right after `--traces` as its
  // value, so `diff --traces a.json b.json` parses as traces=a.json with
  // one positional path; accept that form alongside the trailing-switch
  // spelling `diff a.json b.json --traces`.
  std::vector<std::string> paths(positional.begin() + 1, positional.end());
  const std::string bound = flags.GetString("traces", "");
  if (!bound.empty()) {
    paths.insert(paths.begin(), bound);
  }
  std::string error;
  const bool flags_ok =
      flags.Validate({"rtol", "atol", "max-shift", "traces"}, {}, &error) ||
      flags.Validate({"rtol", "atol", "max-shift"}, {"traces"}, &error);
  if (paths.size() != 2 || !flags_ok) {
    if (!flags_ok && !error.empty()) {
      std::fprintf(stderr, "odbench: %s\n", error.c_str());
    }
    return Usage(prog);
  }
  odtrace::TraceDiffOptions options;
  options.rtol = flags.GetNonNegativeDouble("rtol", 0.0);
  options.atol = flags.GetNonNegativeDouble("atol", 0.0);
  const double max_shift_seconds = flags.GetNonNegativeDouble(
      "max-shift", 0.0, odfault::kMaxWindowEnd.seconds());
  options.max_shift_us = static_cast<int64_t>(max_shift_seconds * 1e6);

  auto read = [](const std::string& path)
      -> std::optional<odtrace::TraceArtifact> {
    auto artifact = odtrace::TraceArtifact::ReadFile(path);
    if (!artifact.has_value()) {
      std::fprintf(stderr, "odbench: cannot read trace artifact %s\n",
                   path.c_str());
    }
    return artifact;
  };
  auto a = read(paths[0]);
  auto b = read(paths[1]);
  if (!a.has_value() || !b.has_value()) {
    return 66;  // EX_NOINPUT
  }

  odtrace::TraceDiff diff = odtrace::DiffTraceArtifacts(*a, *b, options);
  odtrace::PrintTraceDiff(diff, stdout);
  return diff.ExitCode();
}

int Diff(const odharness::Flags& flags, const char* prog) {
  if (flags.Has("traces")) {
    return DiffTraces(flags, prog);
  }
  const auto& positional = flags.positional();
  std::string error;
  if (positional.size() != 3 || !flags.Validate({"rtol", "atol"}, {}, &error)) {
    if (!error.empty()) {
      std::fprintf(stderr, "odbench: %s\n", error.c_str());
    }
    return Usage(prog);
  }
  odharness::DiffOptions options;
  options.rtol = flags.GetNonNegativeDouble("rtol", 0.0);
  options.atol = flags.GetNonNegativeDouble("atol", 0.0);

  auto read = [](const std::string& path)
      -> std::optional<odharness::RunArtifact> {
    auto artifact = odharness::RunArtifact::ReadFile(path);
    if (!artifact.has_value()) {
      std::fprintf(stderr, "odbench: cannot read artifact %s\n", path.c_str());
    }
    return artifact;
  };
  auto a = read(positional[1]);
  auto b = read(positional[2]);
  if (!a.has_value() || !b.has_value()) {
    return 66;  // EX_NOINPUT
  }

  odharness::ArtifactDiff diff = odharness::DiffArtifacts(*a, *b, options);
  odharness::PrintArtifactDiff(diff, stdout);
  return diff.ExitCode();
}

int Main(int argc, char** argv) {
  // Stamp the application-layer calibration constants into every artifact's
  // provenance before anything runs.
  odharness::SetProvenanceCalibration(odapps::CalibrationConstants());

  odharness::Flags flags(argc, argv);
  const auto& positional = flags.positional();
  if (positional.empty()) {
    return Usage(argv[0]);
  }

  // Every subcommand validates its flags; `odbench list --bogus` is an
  // error, not a silently ignored typo.
  const std::string& command = positional[0];
  std::string error;
  if (command == "list") {
    if (positional.size() != 1 || !flags.Validate({}, {}, &error)) {
      if (!error.empty()) {
        std::fprintf(stderr, "odbench: %s\n", error.c_str());
      }
      return Usage(argv[0]);
    }
    return List();
  }
  if (command == "diff") {
    return Diff(flags, argv[0]);
  }
  if (command != "run" || positional.size() != 2) {
    return Usage(argv[0]);
  }
  if (!flags.Validate(
          {"trials", "seed", "jobs", "out", "fault-plan", "scenario"},
          {"compact", "trace"}, &error)) {
    std::fprintf(stderr, "odbench: %s\n", error.c_str());
    return Usage(argv[0]);
  }

  odharness::RunOptions options;
  options.trials = flags.GetInt("trials", 0);
  options.seed = flags.GetUint64("seed", 0);
  options.jobs = flags.GetInt("jobs", 1);
  options.out_dir = flags.GetString("out", "artifacts");
  options.compact_artifacts = flags.Has("compact");
  options.trace = flags.Has("trace");
  options.fault_plan = flags.GetString("fault-plan", "");
  if (!options.fault_plan.empty()) {
    odfault::FaultPlan plan;
    if (!odfault::FaultPlan::Parse(options.fault_plan, &plan, &error)) {
      std::fprintf(stderr, "odbench: --fault-plan: %s\n", error.c_str());
      return Usage(argv[0]);
    }
    options.fault_plan = plan.ToString();  // Canonical spelling everywhere.
  }
  options.scenario = flags.GetString("scenario", "");
  if (!options.scenario.empty() &&
      odscenario::FindScenario(options.scenario) == nullptr) {
    std::fprintf(stderr, "odbench: unknown scenario '%s'; known scenarios:\n",
                 options.scenario.c_str());
    for (const std::string& name : odscenario::ScenarioNames()) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return Usage(argv[0]);
  }
  if (options.out_dir == "none") {
    options.out_dir.clear();
  }
  if (!options.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "odbench: cannot create %s: %s\n",
                   options.out_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  auto& registry = odharness::ExperimentRegistry::Instance();
  const std::string& query = positional[1];
  if (query == "all") {
    return odharness::RunExperiments(registry.List(), options);
  }

  std::vector<std::string> matches;
  const odharness::Experiment* experiment = registry.Resolve(query, &matches);
  if (experiment == nullptr) {
    if (matches.size() > 1) {
      std::fprintf(stderr, "odbench: '%s' is ambiguous:\n", query.c_str());
      for (const std::string& match : matches) {
        std::fprintf(stderr, "  %s\n", match.c_str());
      }
    } else {
      std::fprintf(stderr,
                   "odbench: unknown experiment '%s' (try: odbench list)\n",
                   query.c_str());
    }
    return 64;
  }
  return odharness::RunExperiment(*experiment, options);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const odharness::FlagError& e) {
    std::fprintf(stderr, "odbench: %s\n", e.what());
    return Usage(argv[0]);
  }
}
