#include "src/harness/registry.h"

#include "src/harness/job_budget.h"
#include "src/util/check.h"

namespace odharness {

RunContext::RunContext(std::string experiment_name, const RunOptions& options)
    : name_(std::move(experiment_name)),
      options_(options),
      runner_(options.jobs) {
  artifact_.experiment = name_;
  // Stamp how this run's numbers are being produced.  Identical for every
  // experiment and every --jobs value, so the determinism contract holds.
  artifact_.provenance.git_revision = BuildGitRevision();
  artifact_.provenance.trials_override = options.trials;
  artifact_.provenance.seed_override = options.seed;
  artifact_.provenance.calibration = ProvenanceCalibration();
  // All parallelism below this context — trial pools, sweep cells, nested
  // combinations — shares one budget of jobs-1 helper threads (the calling
  // thread is the jobs-th worker).
  JobBudget::Global().Configure(runner_.jobs() - 1);
}

TrialSet RunContext::RunTrials(const std::string& label, int default_n,
                               uint64_t default_seed, const TrialFn& measure) {
  const int n = options_.trials > 0 ? options_.trials : default_n;
  const uint64_t seed = options_.seed > 0 ? options_.seed : default_seed;
  TrialSet set = runner_.Run(n, seed, measure);
  artifact_.AddSet(label, set);
  return set;
}

void RunContext::Record(const std::string& label, uint64_t seed,
                        TrialSample sample) {
  TrialSet set;
  set.base_seed = seed;
  set.trials.push_back(std::move(sample));
  set.Summarize();
  artifact_.AddSet(label, std::move(set));
}

void RunContext::Note(const std::string& key, double value) {
  artifact_.AddNote(key, value);
}

void RunContext::AddAuxDocument(std::string filename, JsonValue document) {
  OD_CHECK(!filename.empty());
  for (auto& [name, doc] : aux_documents_) {
    if (name == filename) {
      doc = std::move(document);
      return;
    }
  }
  aux_documents_.emplace_back(std::move(filename), std::move(document));
}

ExperimentRegistry& ExperimentRegistry::Instance() {
  static ExperimentRegistry* registry = new ExperimentRegistry();
  return *registry;
}

void ExperimentRegistry::Register(Experiment experiment) {
  OD_CHECK(!experiment.name.empty());
  OD_CHECK(experiment.run != nullptr);
  auto [it, inserted] = by_name_.emplace(experiment.name, experiment);
  OD_CHECK(inserted);  // Duplicate experiment name.
  (void)it;
}

const Experiment* ExperimentRegistry::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it != by_name_.end() ? &it->second : nullptr;
}

const Experiment* ExperimentRegistry::Resolve(
    const std::string& query, std::vector<std::string>* matches) const {
  if (const Experiment* exact = Find(query)) {
    return exact;
  }
  const Experiment* unique = nullptr;
  std::vector<std::string> candidates;
  for (const auto& [name, experiment] : by_name_) {
    if (name.rfind(query, 0) == 0) {
      candidates.push_back(name);
      unique = &experiment;
    }
  }
  if (matches != nullptr) {
    *matches = candidates;
  }
  return candidates.size() == 1 ? unique : nullptr;
}

std::vector<const Experiment*> ExperimentRegistry::List() const {
  std::vector<const Experiment*> out;
  out.reserve(by_name_.size());
  for (const auto& [name, experiment] : by_name_) {
    out.push_back(&experiment);
  }
  return out;
}

Registrar::Registrar(const char* name, const char* description,
                     int (*run)(RunContext&)) {
  ExperimentRegistry::Instance().Register(Experiment{name, description, run});
}

}  // namespace odharness
