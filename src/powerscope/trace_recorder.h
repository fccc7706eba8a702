// Per-component power-trace capture.
//
// A TraceRecorder observes a Machine (OnMachinePowerChanged fires on every
// component draw change) and maintains one run-length-encoded step function
// per component, plus one for the superlinear "Synergy" excess.  The
// recorder reads exactly the Component::power() values the analytic
// EnergyAccounting integrates, at exactly the notification instants the
// accounting accrues on, so the integral of a snapshot reproduces the
// accounting totals to floating-point accumulation error.
//
// Coalescing rules (what makes the trace a canonical signature):
//   * A notification that leaves a component's draw unchanged appends
//     nothing (RLE — fidelity switches on *other* components notify the
//     whole machine).
//   * A draw change at the same microsecond as the current segment's start
//     overwrites that segment's draw rather than opening a second one: a
//     zero-length segment is unobservable power and would make the
//     signature depend on intra-microsecond event ordering.  If the
//     overwrite lands back on the previous segment's draw, the now
//     redundant boundary is dropped entirely.
//
// Restart(now) clears history and opens fresh segments at `now` (the
// moment Measure() resets the accounting); Snapshot(now) returns the
// timelines over [restart, now].  The recorder registers itself as a
// machine observer in the constructor; observers cannot be removed, so the
// recorder must outlive every simulation run of its machine (TestBed owns
// both and keeps them together).

#ifndef SRC_POWERSCOPE_TRACE_RECORDER_H_
#define SRC_POWERSCOPE_TRACE_RECORDER_H_

#include <vector>

#include "src/power/machine.h"
#include "src/sim/time.h"
#include "src/trace/power_trace.h"

namespace odscope {

class TraceRecorder : public odpower::MachineObserver {
 public:
  // Attaches to `machine` (must outlive the recorder) and starts recording
  // at `now`.  Components present at construction define the streams; the
  // component set must not grow afterwards (OD_CHECKed on notify).
  TraceRecorder(odpower::Machine* machine, odsim::SimTime now);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Drops recorded history and re-opens every stream at `now` with the
  // machine's current draws.
  void Restart(odsim::SimTime now);

  // The timelines recorded since the last Restart, closed at `now`.
  // Trailing zero-length segments (a draw change at the very last
  // microsecond) are dropped — they cover no time and would differ between
  // otherwise identical runs that merely stop one event earlier.
  odtrace::PowerTrace Snapshot(odsim::SimTime now) const;

  // odpower::MachineObserver:
  void OnMachinePowerChanged(odsim::SimTime now) override;

 private:
  // Appends a draw observation at `now` to one stream, applying the
  // coalescing rules above.
  static void Record(std::vector<odtrace::TraceSegment>* segments,
                     int64_t now_us, double watts);

  odpower::Machine* machine_;
  odsim::SimTime start_;
  // One stream per component (machine attach order), then "Synergy".
  std::vector<std::vector<odtrace::TraceSegment>> streams_;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_TRACE_RECORDER_H_
