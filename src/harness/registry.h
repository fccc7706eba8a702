// Experiment registry: the single harness layer behind `odbench`.
//
// Each former bench main() is now a registered experiment: a name, a
// one-line description, and a Run(RunContext&) function.  The odbench
// runner binary lists and executes them; experiments record their trial
// sets and scalar notes on the context, and the runner writes the
// accumulated RunArtifact as JSON next to the ASCII output.
//
// Registering an experiment:
//
//   ODBENCH_EXPERIMENT(fig06_video, "Figure 6: video fidelity sweep") {
//     auto set = ctx.RunTrials("Video 1/Combined", 5, 1000, measure);
//     ...print tables...
//     return 0;
//   }

#ifndef SRC_HARNESS_REGISTRY_H_
#define SRC_HARNESS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/artifact.h"
#include "src/harness/trial_runner.h"

namespace odharness {

struct RunOptions {
  int trials = 0;      // > 0 overrides each trial set's default count.
  uint64_t seed = 0;   // > 0 overrides each trial set's default base seed.
  int jobs = 1;        // Worker threads: trial pools and sweep cells.
  std::string out_dir; // Artifact/CSV directory; empty = no artifacts.
  // Single-line artifact JSON (same content, ~4x smaller); the committed
  // golden fixtures are written this way.
  bool compact_artifacts = false;
  // Fault-plan spec (odfault grammar, see src/fault/fault_plan.h) offered
  // to fault-aware experiments; empty = each experiment's own default.
  // Experiments that honor it stamp the plan into artifact provenance.
  std::string fault_plan;
  // Named scenario (see src/scenario/library.h) offered to scenario-aware
  // experiments; empty = run every scenario the experiment covers.
  // Experiments that honor it stamp the canonical scenario text into
  // artifact provenance.
  std::string scenario;
  // Record per-component power traces for the experiment's signature
  // scenarios (see src/trace).  Trace-aware experiments attach a
  // "<name>.trace.json" aux document; scalar artifacts are byte-unchanged.
  bool trace = false;
};

class RunContext {
 public:
  RunContext(std::string experiment_name, const RunOptions& options);

  const std::string& name() const { return name_; }
  const RunOptions& options() const { return options_; }
  int jobs() const { return runner_.jobs(); }
  // Directory for auxiliary outputs (CSV dumps); empty when artifacts are
  // disabled.  Created by the runner before the experiment starts.
  const std::string& out_dir() const { return options_.out_dir; }

  // Runs seeded trials on the pool and records the set in the artifact.
  // `default_n` / `default_seed` are the experiment's paper-faithful
  // defaults, subject to the --trials / --seed overrides.
  TrialSet RunTrials(const std::string& label, int default_n,
                     uint64_t default_seed, const TrialFn& measure);

  // Records a single precomputed observation (for sweeps whose structure
  // is not N-trials-at-consecutive-seeds).
  void Record(const std::string& label, uint64_t seed, TrialSample sample);

  // Records a named scalar (claim, calibration ratio, fit parameter).
  void Note(const std::string& key, double value);

  RunArtifact& artifact() { return artifact_; }

  // Whether the run asked for power traces (--trace).  Experiments that
  // support tracing consult this and attach their trace document via
  // AddAuxDocument; experiments that don't simply ignore it.
  bool trace_enabled() const { return options_.trace; }

  // Registers an auxiliary JSON document the runner writes to out_dir
  // next to the scalar artifact (same atomic write, same --compact
  // honoring).  `filename` is relative to out_dir; a repeated filename
  // replaces the earlier document.  The harness stays ignorant of the
  // document's schema — the odtrace layer builds trace documents this way
  // without the harness depending on it.
  void AddAuxDocument(std::string filename, JsonValue document);
  const std::vector<std::pair<std::string, JsonValue>>& aux_documents() const {
    return aux_documents_;
  }

 private:
  std::string name_;
  RunOptions options_;
  TrialRunner runner_;
  RunArtifact artifact_;
  std::vector<std::pair<std::string, JsonValue>> aux_documents_;
};

struct Experiment {
  std::string name;
  std::string description;
  int (*run)(RunContext&) = nullptr;
};

class ExperimentRegistry {
 public:
  static ExperimentRegistry& Instance();

  // Fails (OD_CHECK) on duplicate names.
  void Register(Experiment experiment);

  // Exact-name lookup; nullptr when absent.
  const Experiment* Find(const std::string& name) const;
  // Exact match first, then a unique-prefix match ("fig04" ->
  // "fig04_power_table").  `matches`, when non-null, receives the candidate
  // names of an ambiguous prefix.
  const Experiment* Resolve(const std::string& query,
                            std::vector<std::string>* matches = nullptr) const;

  // All experiments, sorted by name.
  std::vector<const Experiment*> List() const;

 private:
  ExperimentRegistry() = default;
  std::map<std::string, Experiment> by_name_;
};

// Static-initialization helper behind ODBENCH_EXPERIMENT.
struct Registrar {
  Registrar(const char* name, const char* description,
            int (*run)(RunContext&));
};

}  // namespace odharness

// Defines and registers an experiment.  The body that follows becomes
// `int Run(odharness::RunContext& ctx)`.
#define ODBENCH_EXPERIMENT(id, description)                            \
  static int OdbenchRun_##id(::odharness::RunContext& ctx);            \
  static const ::odharness::Registrar odbench_registrar_##id{          \
      #id, description, &OdbenchRun_##id};                             \
  static int OdbenchRun_##id([[maybe_unused]] ::odharness::RunContext& ctx)

#endif  // SRC_HARNESS_REGISTRY_H_
