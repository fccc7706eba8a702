// Fault scenario: a fixed adaptive workload run under a FaultPlan.
//
// One fully wired client (TestBed) runs a browsing loop, a map-viewing
// loop, a local speech-recognition loop (vocabulary paging on, so disk
// faults bite), and a looping background video while the injector replays
// the plan.
// Pages and maps follow each other after a 2 s think time, short so the
// loops meet faults often.  The bandwidth monitor feeds both the classic
// expectation path (NotifyResourceLevel) and the outage clamp
// (NotifyLinkHealth); the RPC transport gets bounded retries plus a
// per-call deadline so no fetch can wedge (odapps::DegradedClient).  The
// result is a degradation record: energy, useful work done,
// work shed or degraded, typed RPC failures, and clamp behavior.

#ifndef SRC_FAULT_FAULT_SCENARIO_H_
#define SRC_FAULT_FAULT_SCENARIO_H_

#include <cstdint>
#include <memory>

#include "src/fault/fault_plan.h"
#include "src/sim/time.h"
#include "src/trace/power_trace.h"

namespace odfault {

struct FaultScenarioOptions {
  uint64_t seed = 1;
  FaultPlan plan;
  odsim::SimDuration duration = odsim::SimDuration::Seconds(180);

  // Record the run's per-component power timeline (see
  // TestBed::Options::trace); returned in FaultScenarioResult::trace.
  bool trace = false;
};

struct FaultScenarioResult {
  double joules = 0.0;
  double seconds = 0.0;

  // Useful work (degraded units still count: the loop kept moving).
  int pages_browsed = 0;
  int maps_viewed = 0;
  int utterances_recognized = 0;
  int64_t chunks_played = 0;

  // Work shed or degraded instead of queued behind a dead resource.
  int64_t chunks_dropped = 0;
  int pages_degraded = 0;
  int maps_degraded = 0;
  int failed_fetches = 0;  // Summed across wardens.

  // Transport accounting.
  int retransmissions = 0;
  int request_losses = 0;
  int reply_losses = 0;
  int retries_exhausted = 0;
  int deadlines_exceeded = 0;

  // Adaptation behavior.
  int adaptations = 0;
  int outage_clamps = 0;
  double clamped_seconds = 0.0;  // Sampled at 1 s.
  // Lowest fidelity each app was observed at (1 s samples).
  int min_video_fidelity = 0;
  int min_web_fidelity = 0;
  int min_map_fidelity = 0;
  // Fidelity at scenario end (recovery check).
  int final_video_fidelity = 0;
  int final_web_fidelity = 0;
  int final_map_fidelity = 0;
  bool clamped_at_end = false;

  // The scenario ran to its full duration with every loop having made
  // progress — the liveness property fault plans must not break.
  bool completed = false;

  // Per-component power timeline over the measured window; set only when
  // FaultScenarioOptions::trace was enabled.
  std::shared_ptr<const odtrace::PowerTrace> trace;
};

FaultScenarioResult RunFaultScenario(const FaultScenarioOptions& options);

}  // namespace odfault

#endif  // SRC_FAULT_FAULT_SCENARIO_H_
