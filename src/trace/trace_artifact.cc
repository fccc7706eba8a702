#include "src/trace/trace_artifact.h"

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/harness/registry.h"

namespace odtrace {

namespace {

JsonValue ComponentToJson(const ComponentTrace& component, int64_t start_us) {
  JsonValue object = JsonValue::MakeObject();
  object.Set("name", component.name);
  JsonValue segments = JsonValue::MakeArray();
  // Delta encoding: microseconds since the previous segment opened (since
  // the trace start for the first segment, which the recorder guarantees
  // opens exactly there, so the first delta is always 0).
  int64_t previous_us = start_us;
  for (const TraceSegment& segment : component.segments) {
    JsonValue pair = JsonValue::MakeArray();
    pair.Append(static_cast<double>(segment.start_us - previous_us));
    pair.Append(segment.watts);
    segments.Append(std::move(pair));
    previous_us = segment.start_us;
  }
  object.Set("segments", std::move(segments));
  return object;
}

bool ComponentFromJson(const JsonValue& json, int64_t start_us,
                       ComponentTrace* out) {
  const JsonValue* name = json.Find("name");
  const JsonValue* segments = json.Find("segments");
  if (name == nullptr || !name->is_string() || segments == nullptr ||
      !segments->is_array()) {
    return false;
  }
  out->name = name->AsString();
  int64_t previous_us = start_us;
  for (const JsonValue& pair : segments->array()) {
    if (!pair.is_array() || pair.array().size() != 2 ||
        !pair.array()[0].is_number() || !pair.array()[1].is_number()) {
      return false;
    }
    const double delta = pair.array()[0].AsDouble();
    if (!std::isfinite(delta) || delta < 0.0 || delta != std::floor(delta)) {
      return false;
    }
    TraceSegment segment;
    segment.start_us = previous_us + static_cast<int64_t>(delta);
    segment.watts = pair.array()[1].AsDouble();
    previous_us = segment.start_us;
    out->segments.push_back(segment);
  }
  return true;
}

}  // namespace

void TraceArtifact::Add(std::string label, uint64_t seed, PowerTrace trace) {
  traces.push_back(LabeledTrace{std::move(label), seed, std::move(trace)});
}

const TraceArtifact::LabeledTrace* TraceArtifact::FindTrace(
    const std::string& label) const {
  for (const LabeledTrace& labeled : traces) {
    if (labeled.label == label) {
      return &labeled;
    }
  }
  return nullptr;
}

JsonValue TraceArtifact::ToJson() const {
  JsonValue root = JsonValue::MakeObject();
  root.Set("schema_version", kSchemaVersion);
  root.Set("kind", kKind);
  root.Set("experiment", experiment);
  root.Set("provenance", odharness::ProvenanceToJson(provenance));

  JsonValue traces_json = JsonValue::MakeArray();
  for (const LabeledTrace& labeled : traces) {
    JsonValue trace_json = JsonValue::MakeObject();
    trace_json.Set("label", labeled.label);
    trace_json.Set("seed", labeled.seed);
    trace_json.Set("start_us", static_cast<double>(labeled.trace.start_us));
    trace_json.Set("duration_us",
                   static_cast<double>(labeled.trace.duration_us()));
    JsonValue components = JsonValue::MakeArray();
    for (const ComponentTrace& component : labeled.trace.components) {
      components.Append(ComponentToJson(component, labeled.trace.start_us));
    }
    trace_json.Set("components", std::move(components));
    traces_json.Append(std::move(trace_json));
  }
  root.Set("traces", std::move(traces_json));
  return root;
}

std::optional<TraceArtifact> TraceArtifact::FromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return std::nullopt;
  }
  const JsonValue* version = json.Find("schema_version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int>(version->AsDouble()) != kSchemaVersion) {
    return std::nullopt;
  }
  const JsonValue* kind = json.Find("kind");
  if (kind == nullptr || !kind->is_string() || kind->AsString() != kKind) {
    return std::nullopt;
  }
  const JsonValue* name = json.Find("experiment");
  if (name == nullptr || !name->is_string()) {
    return std::nullopt;
  }

  TraceArtifact artifact;
  artifact.experiment = name->AsString();
  if (const JsonValue* prov = json.Find("provenance")) {
    if (!prov->is_object()) {
      return std::nullopt;
    }
  }
  artifact.provenance =
      odharness::ProvenanceFromJson(json.Find("provenance"));

  const JsonValue* traces = json.Find("traces");
  if (traces == nullptr || !traces->is_array()) {
    return std::nullopt;
  }
  for (const JsonValue& trace_json : traces->array()) {
    const JsonValue* label = trace_json.Find("label");
    const JsonValue* start = trace_json.Find("start_us");
    const JsonValue* duration = trace_json.Find("duration_us");
    const JsonValue* components = trace_json.Find("components");
    if (label == nullptr || !label->is_string() || start == nullptr ||
        !start->is_number() || duration == nullptr ||
        !duration->is_number() || components == nullptr ||
        !components->is_array()) {
      return std::nullopt;
    }
    LabeledTrace labeled;
    labeled.label = label->AsString();
    labeled.seed = static_cast<uint64_t>(trace_json.DoubleAt("seed"));
    labeled.trace.start_us = static_cast<int64_t>(start->AsDouble());
    labeled.trace.end_us =
        labeled.trace.start_us + static_cast<int64_t>(duration->AsDouble());
    for (const JsonValue& component_json : components->array()) {
      ComponentTrace component;
      if (!ComponentFromJson(component_json, labeled.trace.start_us,
                             &component)) {
        return std::nullopt;
      }
      labeled.trace.components.push_back(std::move(component));
    }
    artifact.traces.push_back(std::move(labeled));
  }
  return artifact;
}

std::optional<TraceArtifact> TraceArtifact::ReadFile(const std::string& path) {
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

void AttachTraceArtifact(odharness::RunContext& ctx, TraceArtifact artifact) {
  artifact.experiment = ctx.name();
  artifact.provenance = ctx.artifact().provenance;
  ctx.AddAuxDocument(ctx.name() + ".trace.json", artifact.ToJson());
}

}  // namespace odtrace
