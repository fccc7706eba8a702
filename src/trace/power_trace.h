// Per-component power timelines: the odtrace data model.
//
// The paper's central claim is that adaptation changes the *shape* of a
// run's power draw over time, yet scalar artifacts only keep cross-trial
// summaries — which average away exactly the bugs an energy system must
// catch (a component wedged in a high-power state, a retransmission storm,
// a fidelity oscillation).  Following "Software Validation using Power
// Profiles" (Lencevicius et al.), a run's power trace doubles as a
// software-validation signature: odscope::TraceRecorder captures one
// ComponentTrace per hardware component (plus the superlinear "Synergy"
// excess) as a piecewise-constant step function, run-length encoded — a
// segment opens only when the draw actually changes.
//
// Invariants (checked by Validate, relied on by the diff engine):
//   * segment start times are strictly increasing (monotone in time) and
//     lie inside [start_us, end_us];
//   * the first segment of every component opens at start_us, so the step
//     function is total over the trace window;
//   * consecutive segments carry different draws (RLE: equal-power change
//     notifications are coalesced away);
//   * every draw is finite.
//
// Because the machine is simulated in integer microseconds and the recorder
// reads the same Component::power() values the analytic EnergyAccounting
// integrates, the integral of a component's trace reproduces the accounting
// totals to floating-point accumulation error (a property test pins 1e-9 J).

#ifndef SRC_TRACE_POWER_TRACE_H_
#define SRC_TRACE_POWER_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace odtrace {

struct TraceSegment {
  int64_t start_us = 0;  // Absolute sim time at which the segment opens.
  double watts = 0.0;    // Draw until the next segment (or trace end).

  bool operator==(const TraceSegment&) const = default;
};

// One component's piecewise-constant draw over the trace window.
struct ComponentTrace {
  std::string name;
  std::vector<TraceSegment> segments;

  bool operator==(const ComponentTrace&) const = default;
};

struct PowerTrace {
  int64_t start_us = 0;  // Window the step functions are total over.
  int64_t end_us = 0;

  // Machine components in attach order, then "Synergy" (the superlinear
  // excess, not attributable to any single component).
  std::vector<ComponentTrace> components;

  int64_t duration_us() const { return end_us - start_us; }

  const ComponentTrace* Find(const std::string& name) const;

  // Exact integral of one component's step function over the window, in
  // joules (compensated summation, so the error is the representation's,
  // not the accumulation's).  0.0 when the component is absent.
  double ComponentJoules(const std::string& name) const;

  // Integral of the whole-machine draw: sum over every component stream
  // (the "Synergy" stream included, so this equals the machine total).
  // Streams are summed by name, as Find and the trace diff match them, so
  // names must be unique.
  double TotalJoules() const;

  // Checks the invariants in the header comment.  On failure returns false
  // and, when `error` is non-null, a one-line description of the first
  // violation.
  bool Validate(std::string* error = nullptr) const;

  bool operator==(const PowerTrace&) const = default;
};

}  // namespace odtrace

#endif  // SRC_TRACE_POWER_TRACE_H_
