// odperf: the repository's benchmark program.
//
//   odperf --workload <fleet_contended|fleet_cached|goal_defended>
//          --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Untraced (--trace 0) it times independent units for S seconds, with
// jobs of the fixed reference kernel interleaved inside each unit, and
// reports the end-to-end metrics; traced (--trace 1) it runs every unit twice, untraced then with
// the benchmark's observers and spans, checks that both give the same
// signature, runs the per-layer cells, and reports the per-layer metrics.
// Program stderr is captured into a counted sink file under DIR while units
// run.  The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See odperf/README.md for every metric.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "odperf/cells.h"
#include "odperf/ref_kernel.h"
#include "odperf/trace.h"
#include "odperf/workloads.h"
#include "src/util/check.h"

namespace {

using odperf::Plan;
using odperf::Tracer;
using odperf::UnitResult;
using odperf::Workload;

// Deterministic metrics are taken over the first kSignatureUnits units, so
// they do not depend on how many units the host fits into --seconds.
constexpr int kSignatureUnits = 4;
constexpr int kMaxUnits = 1000;

// setup_s is reported in seconds on a host whose whole reference (all
// RefKernel::kJobs jobs) takes this long; raw set-up time on a shared host
// moved 2.3x within one set of ten runs.
constexpr double kNominalReferenceSeconds = 0.2;

// The warm-up unit every set-up ends with: small enough to cost little,
// large enough to touch every lazy static and allocator pool the real
// units use.
constexpr odperf::UnitSize kWarmupSize{.fleet_devices = 50,
                                       .fleet_goal_seconds = 60.0,
                                       .goal_seeds = 1,
                                       .goal_scenarios = 1};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// Captures the program's stderr (fd 2) into a file while a unit runs and
// counts the lines written, so terminal or pipe speed is never measured.
class StderrSink {
 public:
  explicit StderrSink(const std::string& path)
      : fd_(open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644)) {}
  ~StderrSink() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }
  StderrSink(const StderrSink&) = delete;
  StderrSink& operator=(const StderrSink&) = delete;

  bool ok() const { return fd_ >= 0; }

  void Begin() {
    std::fflush(stderr);
    if (ftruncate(fd_, 0) != 0 || lseek(fd_, 0, SEEK_SET) != 0) {
      std::perror("odperf: stderr sink");
      std::exit(70);
    }
    saved_ = dup(STDERR_FILENO);
    dup2(fd_, STDERR_FILENO);
  }

  // Restores stderr; returns the lines captured since Begin().
  int End() {
    std::fflush(stderr);
    dup2(saved_, STDERR_FILENO);
    close(saved_);
    int lines = 0;
    char buffer[1 << 16];
    off_t offset = 0;
    ssize_t got = 0;
    while ((got = pread(fd_, buffer, sizeof(buffer), offset)) > 0) {
      lines += static_cast<int>(std::count(buffer, buffer + got, '\n'));
      offset += got;
    }
    return lines;
  }

 private:
  int fd_ = -1;
  int saved_ = -1;
};

struct Args {
  Workload workload = Workload::kFleetContended;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/odperf-out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "odperf: %s\nusage: odperf --workload "
               "<fleet_contended|fleet_cached|goal_defended> --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  std::exit(64);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!odperf::ParseWorkload(value, &args.workload)) {
        Usage(("unknown workload " + value).c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Mean of `field` over the signature units.
template <typename Field>
double SignatureMean(const std::vector<UnitResult>& units, Field field) {
  double sum = 0.0;
  for (int u = 0; u < kSignatureUnits; ++u) {
    sum += field(units[static_cast<size_t>(u)]);
  }
  return sum / kSignatureUnits;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const char* name = odperf::WorkloadName(args.workload);
  mkdir(args.out_dir.c_str(), 0755);
  StderrSink sink(args.out_dir + "/stderr-" + name + ".log");
  if (!sink.ok()) {
    std::fprintf(stderr, "odperf: cannot open the stderr sink in %s\n",
                 args.out_dir.c_str());
    return 73;
  }

  Tracer tracer;
  Tracer* spans = args.trace ? &tracer : nullptr;
  const int root = tracer.Begin("run");

  // Benchmark-owned state first: the kernel's working set is not set-up of
  // the program.  One pass over every job records the checksums later
  // passes must reproduce.
  odperf::RefKernel kernel;
  std::vector<uint64_t> job_checksums;
  for (int j = 0; j < odperf::RefKernel::kJobs; ++j) {
    job_checksums.push_back(kernel.RunJob());
  }
  bool correct = true;

  // The reference is sampled where the program runs: one kernel job at
  // each of a unit's reference ticks (after each of a goal unit's 60 runs,
  // every 10 simulated seconds inside a fleet run), and the unit's
  // reference time is the mean job time scaled to a whole reference
  // (RefKernel::kJobs jobs).
  int job = 0;
  auto run_job = [&] {
    auto start = std::chrono::steady_clock::now();
    if (kernel.RunJob() != job_checksums[static_cast<size_t>(job)]) {
      std::printf("reference kernel checksum changed\n");
      correct = false;
    }
    job = (job + 1) % odperf::RefKernel::kJobs;
    return SecondsSince(start);
  };
  // Set-up: the plan from text inputs plus the warm-up unit.  It runs once
  // before the first unit (that one also pays for first touch of lazy
  // statics) and again after every unit, so its median samples the host
  // across the whole run like the units do; only the first plan is used.
  // Each repeat is bracketed by reference jobs and normalised like the
  // units: set-up seconds on a host whose whole reference takes
  // kNominalReferenceSeconds.
  std::vector<double> setup_seconds;
  auto run_setup = [&] {
    odperf::SpanScope span(spans, "setup", root);
    const double job_before = run_job();
    sink.Begin();
    auto start = std::chrono::steady_clock::now();
    Plan prepared = odperf::Prepare(args.workload, args.seed);
    UnitResult warm = odperf::RunUnit(
        odperf::Prepare(args.workload, args.seed, kWarmupSize), 0);
    const double seconds = SecondsSince(start);
    sink.End();
    const double reference =
        0.5 * (job_before + run_job()) * odperf::RefKernel::kJobs;
    setup_seconds.push_back(seconds / reference * kNominalReferenceSeconds);
    if (!warm.ok) {
      std::printf("warm-up unit failed: %s\n", warm.failure.c_str());
      correct = false;
    }
    return prepared;
  };
  const Plan plan = run_setup();

  std::printf("odperf %s seed=%" PRIu64 " seconds=%g trace=%d\n", name,
              args.seed, args.seconds, args.trace ? 1 : 0);
  std::vector<UnitResult> units;
  std::vector<UnitResult> traced_units;
  std::vector<double> ratios, traced_ratios, unit_ms, ref_ms, log_lines;
  int attempted = 0;
  int failed = 0;

  // Returns the unit, its host seconds and its reference seconds.
  auto timed_unit = [&](int u, Tracer* tracer, int* lines) {
    odperf::SpanScope span(tracer, "unit", root);
    std::vector<double> jobs;
    sink.Begin();
    UnitResult result = odperf::RunUnit(plan, u, tracer, span.id(),
                                        [&] { jobs.push_back(run_job()); });
    *lines = sink.End();
    span.set_count(result.events);
    OD_CHECK(static_cast<int>(jobs.size()) ==
             odperf::ReferenceTicks(plan.workload, plan.size));
    double ref = 0.0;
    for (double seconds : jobs) {
      ref += seconds;
    }
    ref *= static_cast<double>(odperf::RefKernel::kJobs) / jobs.size();
    ref_ms.push_back(1e3 * ref);
    ++attempted;
    if (!result.ok) {
      ++failed;
      std::printf("unit %d FAILED: %s\n", u, result.failure.c_str());
    }
    return std::make_tuple(result, result.host_seconds, ref);
  };

  const auto loop_start = std::chrono::steady_clock::now();
  for (int u = 0; u < kMaxUnits; ++u) {
    if (u >= kSignatureUnits && SecondsSince(loop_start) >= args.seconds) {
      break;
    }
    int lines = 0;
    auto [result, seconds, ref] = timed_unit(u, nullptr, &lines);
    ratios.push_back(seconds / ref);
    unit_ms.push_back(1e3 * seconds);
    log_lines.push_back(lines);
    std::printf("unit %d seed=%016" PRIx64
                " ratio=%.4f unit_ms=%.2f ref_ms=%.2f log_lines=%d %s\n",
                u, odperf::UnitSeed(plan, u), seconds / ref, 1e3 * seconds,
                1e3 * ref, lines, result.Signature().c_str());
    units.push_back(result);
    if (args.trace) {
      int traced_lines = 0;
      auto [traced, traced_seconds, traced_ref] =
          timed_unit(u, &tracer, &traced_lines);
      traced_ratios.push_back(traced_seconds / traced_ref);
      if (traced.Signature() != result.Signature() || traced_lines != lines) {
        ++failed;
        std::printf("unit %d FAILED: tracing changed the outcome: %s\n", u,
                    traced.Signature().c_str());
      }
      traced_units.push_back(traced);
    }
    run_setup();
    std::fflush(stdout);
  }

  std::vector<double> sorted_ms = unit_ms;
  std::sort(sorted_ms.begin(), sorted_ms.end());
  std::printf("units=%zu unit_ms median=%.2f min=%.2f ref_ms median=%.2f "
              "(raw host time, for reading only)\n",
              unit_ms.size(), Median(unit_ms), sorted_ms.front(),
              Median(ref_ms));

  std::vector<Metric> metrics;
  if (!args.trace) {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"unit_ref_ratio", Median(ratios), "ratio"},
        {"setup_s", Median(setup_seconds), "s"},
        {"peak_rss_mb", usage.ru_maxrss / 1024.0, "MB"},
        {"goal_life_frac",
         SignatureMean(units, [](const UnitResult& r) { return r.goal_life_frac; }),
         "ratio"},
    };
  } else {
    const std::vector<UnitResult>& t = traced_units;
    auto mean = [&t](double UnitResult::*field) {
      return SignatureMean(t, [field](const UnitResult& r) { return r.*field; });
    };
    const double events = SignatureMean(
        t, [](const UnitResult& r) { return static_cast<double>(r.events); });
    const int cells_span = tracer.Begin("cells", root);
    std::map<std::string, double> cells = odperf::RunCells(plan, &tracer, cells_span);
    tracer.End(cells_span);
    const double paper_err = odperf::PaperErrorPct(&tracer, root);
    std::vector<double> sig_lines(log_lines.begin(),
                                  log_lines.begin() + kSignatureUnits);
    metrics = {
        {"sim.events", events, "count"},
        {"sim.events_per_dev_s", events / mean(&UnitResult::sim_seconds), "1/s"},
        {"sim.ns_per_event", cells["sim.ns_per_event"], "ns"},
        {"powerscope.samples", cells["powerscope.samples"], "count"},
        {"powerscope.ns_per_sample", cells["powerscope.ns_per_sample"], "ns"},
        {"energy.ns_per_sample", cells["energy.ns_per_sample"], "ns"},
        {"energy.adaptations", mean(&UnitResult::adaptations), "count"},
        {"energy.safe_mode_entries", mean(&UnitResult::safe_mode_entries), "count"},
        {"energy.drift_entries", mean(&UnitResult::drift_entries), "count"},
        {"energy.invalid_samples", mean(&UnitResult::invalid_samples), "count"},
        {"energy.mean_final_fidelity", mean(&UnitResult::mean_final_fidelity), "level"},
        {"energy.goal_attainment", mean(&UnitResult::goal_attainment), "ratio"},
        {"energy.estimate_err_pct", mean(&UnitResult::estimate_err_pct), "%"},
        {"power.state_changes", mean(&UnitResult::power_state_changes), "count"},
        {"power.cpu_switches", mean(&UnitResult::power_cpu_switches), "count"},
        {"power.ns_per_change", cells["power.ns_per_change"], "ns"},
        {"serve.completed", mean(&UnitResult::serve_completed), "count"},
        {"serve.cache_hits", mean(&UnitResult::serve_cache_hits), "count"},
        {"serve.cache_hit_rate", mean(&UnitResult::serve_cache_hit_rate), "ratio"},
        {"serve.batch_joins", mean(&UnitResult::serve_batch_joins), "count"},
        {"serve.evictions", mean(&UnitResult::serve_evictions), "count"},
        {"serve.rejected", mean(&UnitResult::serve_rejected), "count"},
        {"serve.busy_s", mean(&UnitResult::serve_busy_s), "s"},
        {"serve.utilization", mean(&UnitResult::serve_utilization), "ratio"},
        {"serve.wait_p50_s", mean(&UnitResult::serve_wait_p50_s), "s"},
        {"serve.wait_p95_s", mean(&UnitResult::serve_wait_p95_s), "s"},
        {"serve.ns_per_request", cells["serve.ns_per_request"], "ns"},
        {"net.rpcs", mean(&UnitResult::net_rpcs), "count"},
        {"net.failed", mean(&UnitResult::net_failed), "count"},
        {"net.ns_per_rpc", cells["net.ns_per_rpc"], "ns"},
        {"odyssey.overload_clamps", mean(&UnitResult::overload_clamps), "count"},
        {"odyssey.outage_clamps", mean(&UnitResult::outage_clamps), "count"},
        {"scenario.video_segments", mean(&UnitResult::video_segments), "count"},
        {"scenario.pages", mean(&UnitResult::pages), "count"},
        {"scenario.maps", mean(&UnitResult::maps), "count"},
        {"scenario.utterances", mean(&UnitResult::utterances), "count"},
        {"scenario.composite_iterations", mean(&UnitResult::composite_iterations), "count"},
        {"scenario.composite_deferrals", mean(&UnitResult::composite_deferrals), "count"},
        {"scenario.sync_fetches", mean(&UnitResult::sync_fetches), "count"},
        {"scenario.us_per_parse", cells["scenario.us_per_parse"], "us"},
        {"fault.us_per_parse", cells["fault.us_per_parse"], "us"},
        {"util.log_lines", Median(sig_lines), "count"},
        {"apps.paper_err_pct", paper_err, "%"},
        {"host.ref_ms", Median(ref_ms), "ms"},
        {"bench.trace_overhead_pct",
         100.0 * (Median(traced_ratios) / Median(ratios) - 1.0), "%"},
    };
  }
  tracer.End(root);
  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + name + ".json";
    if (!tracer.Write(path)) {
      std::printf("cannot write spans to %s\n", path.c_str());
      correct = false;
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  PrintResult(correct && failed == 0, attempted, failed, metrics);
  return 0;
}
