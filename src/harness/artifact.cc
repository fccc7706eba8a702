#include "src/harness/artifact.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

namespace odharness {

namespace {

#ifndef ODHARNESS_GIT_REVISION
#define ODHARNESS_GIT_REVISION "unknown"
#endif

std::vector<std::pair<std::string, double>>& CalibrationStore() {
  static auto* store = new std::vector<std::pair<std::string, double>>();
  return *store;
}

JsonValue MapToJson(const std::map<std::string, double>& map) {
  JsonValue object = JsonValue::MakeObject();
  for (const auto& [key, value] : map) {
    object.Set(key, value);
  }
  return object;
}

std::map<std::string, double> JsonToMap(const JsonValue* json) {
  std::map<std::string, double> out;
  if (json != nullptr) {
    for (const auto& [key, value] : json->object()) {
      out[key] = value.AsDouble();
    }
  }
  return out;
}

JsonValue SummaryToJson(const odutil::Summary& summary) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("n", summary.n);
  object.Set("mean", summary.mean);
  object.Set("stddev", summary.stddev);
  object.Set("ci90", summary.ci90_halfwidth);
  object.Set("min", summary.min);
  object.Set("max", summary.max);
  return object;
}

}  // namespace

void SetProvenanceCalibration(
    std::vector<std::pair<std::string, double>> constants) {
  CalibrationStore() = std::move(constants);
}

const std::vector<std::pair<std::string, double>>& ProvenanceCalibration() {
  return CalibrationStore();
}

std::string BuildGitRevision() { return ODHARNESS_GIT_REVISION; }

JsonValue ProvenanceToJson(const Provenance& provenance) {
  JsonValue prov = JsonValue::MakeObject();
  prov.Set("git_revision", provenance.git_revision);
  JsonValue seed_policy = JsonValue::MakeObject();
  seed_policy.Set("trials_override", provenance.trials_override);
  seed_policy.Set("seed_override", provenance.seed_override);
  prov.Set("seed_policy", std::move(seed_policy));
  if (!provenance.fault_plan.empty()) {
    prov.Set("fault_plan", provenance.fault_plan);
  }
  if (!provenance.scenario.empty()) {
    prov.Set("scenario", provenance.scenario);
  }
  JsonValue calibration = JsonValue::MakeObject();
  for (const auto& [key, value] : provenance.calibration) {
    calibration.Set(key, value);
  }
  prov.Set("calibration", std::move(calibration));
  return prov;
}

Provenance ProvenanceFromJson(const JsonValue* json) {
  Provenance provenance;
  if (json == nullptr || !json->is_object()) {
    return provenance;
  }
  if (const JsonValue* rev = json->Find("git_revision")) {
    provenance.git_revision = rev->AsString();
  }
  if (const JsonValue* seed_policy = json->Find("seed_policy")) {
    provenance.trials_override =
        static_cast<int>(seed_policy->DoubleAt("trials_override"));
    provenance.seed_override =
        static_cast<uint64_t>(seed_policy->DoubleAt("seed_override"));
  }
  if (const JsonValue* fault_plan = json->Find("fault_plan")) {
    provenance.fault_plan = fault_plan->AsString();
  }
  if (const JsonValue* scenario = json->Find("scenario")) {
    provenance.scenario = scenario->AsString();
  }
  if (const JsonValue* calibration = json->Find("calibration")) {
    for (const auto& [key, value] : calibration->object()) {
      provenance.calibration.emplace_back(key, value.AsDouble());
    }
  }
  return provenance;
}

bool WriteJsonFile(const std::string& path, const JsonValue& json,
                   bool compact) {
  // Write-then-rename: a run interrupted mid-write must never leave a
  // truncated document that a later diff or replay would consume as truth.
  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
        std::fopen(tmp.c_str(), "w"), &std::fclose);
    if (file == nullptr) {
      return false;
    }
    const std::string text = json.Dump(/*indent=*/compact ? 0 : 2);
    if (std::fwrite(text.data(), 1, text.size(), file.get()) != text.size() ||
        std::fflush(file.get()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void RunArtifact::AddSet(std::string label, TrialSet set) {
  sets.push_back(LabeledSet{std::move(label), std::move(set)});
}

void RunArtifact::AddNote(std::string key, double value) {
  for (auto& [k, v] : notes) {
    if (k == key) {
      v = value;
      return;
    }
  }
  notes.emplace_back(std::move(key), value);
}

const RunArtifact::LabeledSet* RunArtifact::FindSet(
    const std::string& label) const {
  for (const LabeledSet& labeled : sets) {
    if (labeled.label == label) {
      return &labeled;
    }
  }
  return nullptr;
}

std::optional<double> RunArtifact::FindNote(const std::string& key) const {
  for (const auto& [k, v] : notes) {
    if (k == key) {
      return v;
    }
  }
  return std::nullopt;
}

JsonValue RunArtifact::ToJson() const {
  JsonValue root = JsonValue::MakeObject();
  root.Set("schema_version", kSchemaVersion);
  root.Set("experiment", experiment);
  root.Set("exit_code", exit_code);

  root.Set("provenance", ProvenanceToJson(provenance));

  JsonValue sets_json = JsonValue::MakeArray();
  for (const LabeledSet& labeled : sets) {
    JsonValue set_json = JsonValue::MakeObject();
    set_json.Set("label", labeled.label);
    set_json.Set("base_seed", labeled.set.base_seed);
    JsonValue trials = JsonValue::MakeArray();
    for (const TrialSample& trial : labeled.set.trials) {
      JsonValue trial_json = JsonValue::MakeObject();
      trial_json.Set("value", trial.value);
      if (!trial.breakdown.empty()) {
        trial_json.Set("breakdown", MapToJson(trial.breakdown));
      }
      if (!trial.components.empty()) {
        trial_json.Set("components", MapToJson(trial.components));
      }
      trials.Append(std::move(trial_json));
    }
    set_json.Set("trials", std::move(trials));
    set_json.Set("summary", SummaryToJson(labeled.set.summary));
    if (!labeled.set.breakdown_summaries.empty()) {
      JsonValue means = JsonValue::MakeObject();
      for (const auto& [key, summary] : labeled.set.breakdown_summaries) {
        means.Set(key, summary.mean);
      }
      set_json.Set("breakdown_means", std::move(means));
    }
    sets_json.Append(std::move(set_json));
  }
  root.Set("sets", std::move(sets_json));

  JsonValue notes_json = JsonValue::MakeObject();
  for (const auto& [key, value] : notes) {
    notes_json.Set(key, value);
  }
  root.Set("notes", std::move(notes_json));
  return root;
}

std::optional<RunArtifact> RunArtifact::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return std::nullopt;
  }
  const JsonValue* version = json.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return std::nullopt;
  }
  const int schema = static_cast<int>(version->AsDouble());
  if (schema < kMinReadSchemaVersion || schema > kSchemaVersion) {
    return std::nullopt;
  }
  const JsonValue* name = json.Find("experiment");
  if (name == nullptr || !name->is_string()) {
    return std::nullopt;
  }

  RunArtifact artifact;
  artifact.experiment = name->AsString();
  artifact.exit_code = static_cast<int>(json.DoubleAt("exit_code"));

  // v2 documents predate provenance; ProvenanceFromJson leaves the
  // defaults in place for an absent block.
  if (const JsonValue* prov = json.Find("provenance")) {
    if (!prov->is_object()) {
      return std::nullopt;
    }
  }
  artifact.provenance = ProvenanceFromJson(json.Find("provenance"));

  if (const JsonValue* sets = json.Find("sets")) {
    if (!sets->is_array()) {
      return std::nullopt;
    }
    for (const JsonValue& set_json : sets->array()) {
      // Every recorded set carries a label, a trials array, and a summary;
      // anything else is a malformed (e.g. hand-edited) document.
      const JsonValue* label = set_json.Find("label");
      const JsonValue* trials = set_json.Find("trials");
      const JsonValue* summary = set_json.Find("summary");
      if (label == nullptr || !label->is_string() || trials == nullptr ||
          !trials->is_array() || summary == nullptr || !summary->is_object()) {
        return std::nullopt;
      }
      LabeledSet labeled;
      labeled.label = label->AsString();
      labeled.set.base_seed =
          static_cast<uint64_t>(set_json.DoubleAt("base_seed"));
      for (const JsonValue& trial_json : trials->array()) {
        if (!trial_json.is_object()) {
          return std::nullopt;
        }
        TrialSample trial;
        trial.value = trial_json.DoubleAt("value");
        trial.breakdown = JsonToMap(trial_json.Find("breakdown"));
        trial.components = JsonToMap(trial_json.Find("components"));
        labeled.set.trials.push_back(std::move(trial));
      }
      // Summaries are derived data; recompute rather than trust the file.
      labeled.set.Summarize();
      artifact.sets.push_back(std::move(labeled));
    }
  }
  if (const JsonValue* notes = json.Find("notes")) {
    for (const auto& [key, value] : notes->object()) {
      artifact.notes.emplace_back(key, value.AsDouble());
    }
  }
  return artifact;
}

bool RunArtifact::WriteFile(const std::string& path, bool compact) const {
  return WriteJsonFile(path, ToJson(), compact);
}

std::optional<RunArtifact> RunArtifact::ReadFile(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "r"), &std::fclose);
  if (file == nullptr) {
    return std::nullopt;
  }
  std::string text;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file.get())) > 0) {
    text.append(buffer, read);
  }
  std::optional<JsonValue> json = JsonValue::Parse(text);
  if (!json.has_value()) {
    return std::nullopt;
  }
  return FromJson(*json);
}

}  // namespace odharness
