#include "odperf/trace.h"

#include <cstdio>
#include <utility>

namespace odperf {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::Begin(std::string name, int parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start_s = Now();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id, uint64_t count) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_s = Now();
  span.count = count;
}

double Tracer::Seconds(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  return span.end_s > span.start_s ? span.end_s - span.start_s : 0.0;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"count\": %llu}%s\n",
                 i, s.name.c_str(), s.parent, s.start_s, s.end_s,
                 static_cast<unsigned long long>(s.count),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

SpanScope::SpanScope(Tracer* tracer, std::string name, int parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) {
    id_ = tracer_->Begin(std::move(name), parent);
  }
}

SpanScope::~SpanScope() {
  if (tracer_ != nullptr) {
    tracer_->End(id_, count_);
  }
}

}  // namespace odperf
