#include "tests/repro/artifact_replay.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace odharness {

ArtifactReplay::ArtifactReplay(std::string dir, std::string expected_fault_plan)
    : dir_(std::move(dir)),
      expected_fault_plan_(std::move(expected_fault_plan)) {}

const ArtifactReplay& ArtifactReplay::Env() {
  static const ArtifactReplay* instance = [] {
    const char* dir = std::getenv("ODBENCH_ARTIFACT_DIR");
    return new ArtifactReplay(dir != nullptr ? dir : "");
  }();
  return *instance;
}

const RunArtifact* ArtifactReplay::Get(const std::string& experiment) const {
  if (!enabled()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = cache_.find(experiment);
  if (it == cache_.end()) {
    std::optional<RunArtifact> artifact =
        RunArtifact::ReadFile(dir_ + "/" + experiment + ".json");
    if (artifact.has_value() &&
        artifact->provenance.fault_plan != expected_fault_plan_) {
      // Recorded under a different disturbance plan than the one the
      // consumer is asserting against: replaying it would compare numbers
      // from two different experiments.  Diagnose once, then fall back to
      // live simulation via the usual nullopt path.
      std::fprintf(
          stderr,
          "ArtifactReplay: ignoring %s/%s.json: recorded fault plan \"%s\" "
          "differs from expected \"%s\"; falling back to live simulation\n",
          dir_.c_str(), experiment.c_str(),
          artifact->provenance.fault_plan.c_str(),
          expected_fault_plan_.c_str());
      artifact.reset();
    }
    it = cache_.emplace(experiment, std::move(artifact)).first;
  }
  return it->second.has_value() ? &*it->second : nullptr;
}

const TrialSet* ArtifactReplay::FindSet(const std::string& experiment,
                                        const std::string& label) const {
  const RunArtifact* artifact = Get(experiment);
  if (artifact == nullptr) {
    return nullptr;
  }
  const RunArtifact::LabeledSet* labeled = artifact->FindSet(label);
  return labeled != nullptr ? &labeled->set : nullptr;
}

std::optional<double> ArtifactReplay::SetMean(const std::string& experiment,
                                              const std::string& label) const {
  const TrialSet* set = FindSet(experiment, label);
  if (set == nullptr || set->trials.empty()) {
    return std::nullopt;
  }
  return set->summary.mean;
}

std::optional<double> ArtifactReplay::BreakdownMean(
    const std::string& experiment, const std::string& label,
    const std::string& key) const {
  const TrialSet* set = FindSet(experiment, label);
  if (set == nullptr) {
    return std::nullopt;
  }
  auto it = set->breakdown_summaries.find(key);
  if (it == set->breakdown_summaries.end()) {
    return std::nullopt;
  }
  return it->second.mean;
}

std::optional<double> ArtifactReplay::ComponentMean(
    const std::string& experiment, const std::string& label,
    const std::string& key) const {
  const TrialSet* set = FindSet(experiment, label);
  if (set == nullptr) {
    return std::nullopt;
  }
  auto it = set->component_summaries.find(key);
  if (it == set->component_summaries.end()) {
    return std::nullopt;
  }
  return it->second.mean;
}

std::optional<double> ArtifactReplay::Note(const std::string& experiment,
                                           const std::string& key) const {
  const RunArtifact* artifact = Get(experiment);
  if (artifact == nullptr) {
    return std::nullopt;
  }
  return artifact->FindNote(key);
}

}  // namespace odharness
