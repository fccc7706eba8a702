#include "src/powerscope/trace_recorder.h"

#include <utility>

#include "src/util/check.h"

namespace odscope {

TraceRecorder::TraceRecorder(odpower::Machine* machine, odsim::SimTime now)
    : machine_(machine) {
  OD_CHECK(machine_ != nullptr);
  machine_->AddObserver(this);
  Restart(now);
}

void TraceRecorder::Restart(odsim::SimTime now) {
  start_ = now;
  streams_.assign(static_cast<size_t>(machine_->component_count()) + 1, {});
  OnMachinePowerChanged(now);
}

void TraceRecorder::Record(std::vector<odtrace::TraceSegment>* segments,
                           int64_t now_us, double watts) {
  if (!segments->empty()) {
    odtrace::TraceSegment& last = segments->back();
    if (last.watts == watts) {
      return;  // RLE: the draw did not change.
    }
    if (last.start_us == now_us) {
      // Same microsecond: overwrite rather than open a zero-length segment.
      // If that reverts to the previous draw, the boundary itself vanishes.
      if (segments->size() >= 2 &&
          (*segments)[segments->size() - 2].watts == watts) {
        segments->pop_back();
      } else {
        last.watts = watts;
      }
      return;
    }
  }
  segments->push_back(odtrace::TraceSegment{now_us, watts});
}

void TraceRecorder::OnMachinePowerChanged(odsim::SimTime now) {
  const int count = machine_->component_count();
  // The stream set is fixed at Restart; a component attached mid-recording
  // would have no history and silently skew the totals.
  OD_CHECK(streams_.size() == static_cast<size_t>(count) + 1);
  const int64_t now_us = now.micros();
  const auto& watts = machine_->component_watts();
  for (size_t i = 0; i < static_cast<size_t>(count); ++i) {
    Record(&streams_[i], now_us, watts[i]);
  }
  Record(&streams_.back(), now_us, machine_->SynergyPower());
}

odtrace::PowerTrace TraceRecorder::Snapshot(odsim::SimTime now) const {
  odtrace::PowerTrace trace;
  trace.start_us = start_.micros();
  trace.end_us = now.micros();
  const int count = machine_->component_count();
  trace.components.reserve(streams_.size());
  for (size_t i = 0; i < streams_.size(); ++i) {
    odtrace::ComponentTrace component;
    component.name = i < static_cast<size_t>(count)
                         ? machine_->component(static_cast<int>(i)).name()
                         : "Synergy";
    component.segments = streams_[i];
    // A draw change at the very last microsecond covers no time; keep the
    // first segment (the step function must be total over the window) but
    // drop any other zero-length tail.
    while (component.segments.size() > 1 &&
           component.segments.back().start_us >= trace.end_us) {
      component.segments.pop_back();
    }
    trace.components.push_back(std::move(component));
  }
  return trace;
}

}  // namespace odscope
