// Experiment testbed: one fully wired client (simulator, ThinkPad 560X power
// model, WaveLAN link, Odyssey viceroy, display arbiter, and the four
// adaptive applications), plus a Measure() helper that runs a workload to
// completion and returns its energy broken down by hardware component and by
// software component — the two views every figure in the paper uses.

#ifndef SRC_APPS_TESTBED_H_
#define SRC_APPS_TESTBED_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/apps/display_arbiter.h"
#include "src/apps/map_viewer.h"
#include "src/apps/speech_recognizer.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/net/link.h"
#include "src/odyssey/viceroy.h"
#include "src/power/thinkpad560x.h"
#include "src/powerscope/online_monitor.h"
#include "src/powerscope/trace_recorder.h"
#include "src/sim/simulator.h"
#include "src/trace/power_trace.h"
#include "src/util/rng.h"

namespace odapps {

class TestBed {
 public:
  struct Options {
    uint64_t seed = 1;
    bool hw_pm = false;
    // Record per-component power traces: attaches an odscope::TraceRecorder
    // to the machine, and every Measure()/MeasureFor() returns its window's
    // trace alongside the scalar breakdowns.  The recorder observes draws
    // passively — energy numbers are bit-identical with tracing off.
    bool trace = false;
  };

  explicit TestBed(const Options& options);
  TestBed() : TestBed(Options{}) {}
  ~TestBed();

  TestBed(const TestBed&) = delete;
  TestBed& operator=(const TestBed&) = delete;

  odsim::Simulator& sim() { return sim_; }
  odpower::Laptop& laptop() { return *laptop_; }
  odnet::Link& link() { return *link_; }
  odyssey::Viceroy& viceroy() { return *viceroy_; }
  DisplayArbiter& arbiter() { return *arbiter_; }
  odutil::Rng& rng() { return rng_; }

  VideoPlayer& video() { return *video_; }
  SpeechRecognizer& speech() { return *speech_; }
  WebBrowser& web() { return *web_; }
  MapViewer& map() { return *map_; }

  // The power-trace recorder, or null when Options::trace was off.
  odscope::TraceRecorder* tracer() { return tracer_.get(); }

  // Enables/disables hardware power management (disk spin-down, network
  // standby, display off when no visual app is active).
  void SetHardwarePm(bool enabled);

  // -- Measurement -----------------------------------------------------------

  struct Measurement {
    double joules = 0.0;
    double seconds = 0.0;
    // Energy by hardware component name, plus "Synergy" for the superlinear
    // excess.
    std::map<std::string, double> by_component;
    // Energy and CPU time by software component (process name).
    std::map<std::string, double> by_process;
    std::map<std::string, double> cpu_seconds;
    // Server-side view at collection time, keyed by service name: what the
    // wardens' (possibly shared) distillation services did during the
    // measured window.  Counters are cumulative over the service lifetime.
    struct ServerStats {
      int queue_depth = 0;
      double busy_seconds = 0.0;
      int completed_requests = 0;
      double wait_p50_seconds = 0.0;
      double wait_p95_seconds = 0.0;
    };
    std::map<std::string, ServerStats> by_server;
    // Per-component power timeline over the measured window; set only when
    // Options::trace was enabled (shared so Measurement stays copyable).
    std::shared_ptr<const odtrace::PowerTrace> trace;

    double average_watts() const { return seconds > 0.0 ? joules / seconds : 0.0; }
    double Component(const std::string& name) const;
    double Process(const std::string& name) const;
  };

  // Runs `body` to completion: body receives a `done` callback it must
  // invoke when the workload finishes.  Returns energy consumed in between.
  Measurement Measure(const std::function<void(odsim::EventFn done)>& body);

  // Runs whatever is already scheduled for a fixed duration.
  Measurement MeasureFor(odsim::SimDuration duration);

 private:
  Measurement Collect(odsim::SimTime start);

  odsim::Simulator sim_;
  odutil::Rng rng_;
  std::unique_ptr<odpower::Laptop> laptop_;
  std::unique_ptr<odnet::Link> link_;
  std::unique_ptr<odyssey::Viceroy> viceroy_;
  std::unique_ptr<DisplayArbiter> arbiter_;
  std::unique_ptr<VideoPlayer> video_;
  std::unique_ptr<SpeechRecognizer> speech_;
  std::unique_ptr<WebBrowser> web_;
  std::unique_ptr<MapViewer> map_;
  std::unique_ptr<odscope::TraceRecorder> tracer_;
};

// The graceful-degradation wiring of a testbed run under a fault plan.
// Construction installs the degraded transport on the viceroy's RPC client,
// keeping its loss probability: a 500 ms first retry, 5 retries and a 10 s
// per-call deadline, so no fetch can wedge on a dead link.  Arm() aims a
// fault injector at the bed's link, RPC client, power manager and warden
// servers and schedules the plan.  Telemetry kinds hit `monitor`, or, when
// it is null, a never-started monitor that nothing reads, so any plan the
// grammar accepts is legal.
class DegradedClient {
 public:
  DegradedClient(TestBed& bed, uint64_t seed);

  DegradedClient(const DegradedClient&) = delete;
  DegradedClient& operator=(const DegradedClient&) = delete;

  // May be called once.
  void Arm(const odfault::FaultPlan& plan,
           odscope::PowerMonitor* monitor = nullptr);

 private:
  TestBed& bed_;
  odscope::OnlineMonitor idle_monitor_;
  std::unique_ptr<odfault::FaultInjector> injector_;
};

}  // namespace odapps

#endif  // SRC_APPS_TESTBED_H_
