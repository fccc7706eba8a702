// Deterministic user-behavior scenarios (the ARENA-style workload DSL).
//
// A Scenario is a seeded, reproducible timeline of user behavior — bursty
// interaction, commuter connectivity, background sync, mixed multi-app
// days — that drives the existing applications through the simulator.  It
// mirrors FaultPlan's design: a builder API plus a compact text grammar
// that rides in a command-line flag and lands verbatim in artifact
// provenance.  The grammar is the window-spec grammar fault plans use
// (src/fault/window_spec.h), with the name tag allowed:
//
//   phase    := kind '@' start '+' duration [ '=' param ]
//   scenario := [ name ':' ] phase ( ( ';' | newline ) phase )*
//
// with start/duration in (fractional) seconds relative to scenario start,
// '#' starting a to-end-of-line comment, and an optional leading
// "name:" tag.  Example:
//
//   "commuter_day: video@0+240;gap@180+120;web@300+180=6"
//
// plays video for the first four minutes, loses coverage during
// [180 s, 300 s) (the tunnel), and browses six pages a minute during
// [300 s, 480 s).  Phase kinds and param semantics:
//
//   video      foreground video playback; no param
//   web        page fetches; param = pages per minute (default 5)
//   map        map fetches; param = maps per minute (default 5)
//   speech     utterances; param = utterances per minute (default 5)
//   composite  the four-app composite iteration; param = period seconds
//              (default 25)
//   burst      the Section 5.4 stochastic bursty workload; param = per-app
//              per-minute switch probability in (0, 1) (default 0.1)
//   sync       background sync fetches; param = period seconds (default 60)
//   idle       nothing happens; no param (device-inactivity window)
//   gap        coverage gap; param = fraction of nominal bandwidth kept in
//              [0, 1) (default 0 = full outage)
//
// A gap is *environment*, not behavior: DerivedFaultPlan() emits it as a
// matched odfault window (outage, or bandwidth at the kept fraction), so
// the behavior timeline and the disturbance plan it implies are one
// artifact — the commuter's tunnel is the same object in both layers.
//
// Numbers must be finite and each phase representable in whole
// microseconds (window_spec.h).  ToString() renders the canonical spelling
// and Parse(ToString()) reproduces the name and every phase exactly.  Parse
// errors are odfault::SpecError, the same shape as fault-plan diagnostics.

#ifndef SRC_SCENARIO_SCENARIO_H_
#define SRC_SCENARIO_SCENARIO_H_

#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/sim/time.h"

namespace odscenario {

enum class PhaseKind {
  kVideo,
  kWeb,
  kMap,
  kSpeech,
  kComposite,
  kBurst,
  kSync,
  kIdle,
  kGap,
};

// Grammar keyword ("video", "web", "map", "speech", "composite", "burst",
// "sync", "idle", "gap").
const char* PhaseKindName(PhaseKind kind);

struct ScenarioPhase {
  PhaseKind kind = PhaseKind::kIdle;
  // Window start, relative to scenario start.
  odsim::SimDuration at = odsim::SimDuration::Zero();
  odsim::SimDuration duration = odsim::SimDuration::Zero();
  // Kind-specific; see the grammar comment above.
  double param = 0.0;
};

struct Scenario {
  std::string name;
  std::vector<ScenarioPhase> phases;

  // End of the latest phase window — the scenario's natural length.
  odsim::SimDuration Duration() const;

  // Canonical spelling; replays exactly through Parse.  A named scenario
  // with no phases renders as "name:"; an unnamed empty one as "".
  std::string ToString() const;

  // Parses the text grammar ('#' comments, ';' or newline separators,
  // optional leading "name:").  On failure returns false and, when `error`
  // is non-null, a "line L, col C: <why> near '<token>'" diagnostic.  An
  // empty spec parses to an empty scenario.
  static bool Parse(const std::string& spec, Scenario* scenario,
                    std::string* error);

  // The environment the behavior implies: every gap phase as a matched
  // odfault window (outage when the kept fraction is 0, bandwidth
  // otherwise), in phase order.
  odfault::FaultPlan DerivedFaultPlan() const;

  // Whether any behavior phase (anything but idle/gap) covers `t` —
  // fleet-scale per-device activity gating.
  bool ActiveAt(odsim::SimDuration t) const;
  // Whether the device has coverage at `t` (no gap window covers it).
  bool CoverageAt(odsim::SimDuration t) const;
};

// Fluent construction mirroring the grammar; times in seconds.
//
//   Scenario s = ScenarioBuilder("commuter_day")
//                    .Video(0, 240).Gap(180, 120).Web(300, 180, 6).Build();
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::string name = "");

  ScenarioBuilder& Video(double start, double duration);
  ScenarioBuilder& Web(double start, double duration,
                       double pages_per_minute = 5.0);
  ScenarioBuilder& Map(double start, double duration,
                       double maps_per_minute = 5.0);
  ScenarioBuilder& Speech(double start, double duration,
                          double utterances_per_minute = 5.0);
  ScenarioBuilder& Composite(double start, double duration,
                             double period_seconds = 25.0);
  ScenarioBuilder& Burst(double start, double duration,
                         double switch_probability = 0.1);
  ScenarioBuilder& Sync(double start, double duration,
                        double period_seconds = 60.0);
  ScenarioBuilder& Idle(double start, double duration);
  ScenarioBuilder& Gap(double start, double duration,
                       double bandwidth_fraction = 0.0);

  Scenario Build() const { return scenario_; }

 private:
  ScenarioBuilder& Add(PhaseKind kind, double start, double duration,
                       double param);
  Scenario scenario_;
};

}  // namespace odscenario

#endif  // SRC_SCENARIO_SCENARIO_H_
