// Declarative fault plans.
//
// A FaultPlan is a deterministic schedule of timed disturbances — bandwidth
// crashes, full link outages, packet-loss bursts, server compute stalls,
// disk latency spikes, and power-telemetry corruption (sample dropouts,
// stale/NaN readings, gauge drift) — that the FaultInjector replays through
// the discrete-event simulator.  Plans are written in a compact spec grammar
// so they can ride in a command-line flag and land verbatim in artifact
// provenance.  It is the shared window-spec grammar (src/fault/window_spec.h)
// without the name tag:
//
//   event   := kind '@' start '+' duration [ '=' magnitude ]
//   plan    := event ( ( ';' | newline ) event )*
//
// with start/duration in (fractional) seconds relative to Arm() and '#'
// starting a to-end-of-line comment.  Example:
//
//   "bandwidth@20+30=0.1;outage@60+10;loss@90+15=0.3"
//
// crashes bandwidth to 10% of nominal during [20 s, 50 s), takes the link
// down entirely during [60 s, 70 s), and injects 30% packet loss during
// [90 s, 105 s).  Magnitude semantics per kind:
//
//   bandwidth  fraction of nominal bandwidth kept (0, 1]; default 0.1
//   outage     none
//   loss       per-message loss probability [0, 1); default 0.3
//   stall      none
//   disk       disk access latency multiplier > 0; default 8
//   dropout    none — the power monitor delivers no readings at all
//   stale      none — the power monitor repeats its last delivered reading
//   nan        none — the power monitor delivers NaN readings
//   gauge      power-reading scale factor > 0; default 3 (gas-gauge
//              miscalibration: readings are scaled, so the integrated
//              energy estimate develops a discontinuity)
//   ramp       power-reading scale drifts linearly from nominal to the
//              magnitude over the window (> 0; default 2) — creeping
//              miscalibration with no step edge for a validator to catch;
//              the scale snaps back to nominal when the window ends
//
// The last four corrupt *telemetry* only: the machine's true draw and the
// analytic accounting are untouched, which is exactly what makes them a
// test of the goal controller's health machinery (src/energy).
//
// Numbers must be finite and each window representable in whole
// microseconds (window_spec.h).  ToString() renders the canonical spec and
// Parse(ToString()) reproduces every window exactly, not just the spelling.

#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/fault/window_spec.h"
#include "src/sim/time.h"

namespace odfault {

enum class FaultKind {
  kBandwidth,
  kOutage,
  kLossBurst,
  kServerStall,
  kDiskLatency,
  // Telemetry faults: corrupt what the power monitor reports, not what the
  // machine draws.
  kSampleDropout,
  kStaleTelemetry,
  kNanTelemetry,
  kGaugeDrift,
  kGaugeRamp,
};

// Spec-grammar keyword ("bandwidth", "outage", "loss", "stall", "disk",
// "dropout", "stale", "nan", "gauge", "ramp").
const char* FaultKindName(FaultKind kind);

// True for the kinds that disturb power telemetry (and therefore need a
// PowerMonitor target rather than a link/rpc/pm/server one).
bool IsTelemetryFault(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kOutage;
  // Window start, relative to FaultInjector::Arm().
  odsim::SimDuration at = odsim::SimDuration::Zero();
  odsim::SimDuration duration = odsim::SimDuration::Zero();
  // Kind-specific; see the grammar comment above.
  double magnitude = 0.0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  // Canonical spec string; replays exactly through Parse.  Empty plan -> "".
  std::string ToString() const;

  // Parses the spec grammar.  Events are separated by ';' or newlines (so a
  // plan can ride in a flag or in a file) and '#' comments are allowed; a
  // leading "name:" tag is not (it fails as an unknown kind).  On failure
  // returns false and, when `error` is non-null, a position-annotated
  // description of the first problem ("line L, col C: <why> near '<token>'"
  // — see SpecError).  An empty spec parses to an empty plan.
  static bool Parse(const std::string& spec, FaultPlan* plan, std::string* error);
};

}  // namespace odfault

#endif  // SRC_FAULT_FAULT_PLAN_H_
