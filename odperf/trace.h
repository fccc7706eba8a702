// In-memory span recorder for the traced run.  A span is a named interval
// of host time with a parent and an optional work count (events, samples,
// requests) done inside it; spans are kept in memory and written out as
// one JSON document when the run ends.

#ifndef ODPERF_TRACE_H_
#define ODPERF_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace odperf {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  Tracer();

  // Opens a span and returns its id.
  int Begin(std::string name, int parent = kNoParent);
  // Closes span `id`, recording `count` units of work done inside it.
  void End(int id, uint64_t count = 0);

  // Host seconds span `id` lasted (0 while open).
  double Seconds(int id) const;

  // Writes every span as JSON; false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    double start_s = 0.0;
    double end_s = 0.0;
    uint64_t count = 0;
  };
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// Scoped span: Begin on construction, End on destruction.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, int parent = Tracer::kNoParent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }
  void set_count(uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  int id_ = Tracer::kNoParent;
  uint64_t count_ = 0;
};

}  // namespace odperf

#endif  // ODPERF_TRACE_H_
