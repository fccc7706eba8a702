#include "src/sim/simulator.h"

#include <utility>

#include "src/util/check.h"

namespace odsim {

Simulator::Simulator() : now_(SimTime::Zero()) {}

EventHandle Simulator::Schedule(SimDuration delay, EventFn fn) {
  OD_CHECK(delay >= SimDuration::Zero());
  return queue_.Push(now_ + delay, std::move(fn));
}

PeriodicHandle Simulator::Every(SimDuration period, EventFn fn) {
  return queue_.Every(now_, period, std::move(fn));
}

EventHandle Simulator::ScheduleAt(SimTime at, EventFn fn) {
  OD_CHECK(at >= now_);
  return queue_.Push(at, std::move(fn));
}

void Simulator::RunEvents(SimTime deadline) {
  stopped_ = false;
  EventQueue::Popped popped;
  while (!stopped_ && queue_.PopIfAtOrBefore(deadline, &popped)) {
    OD_CHECK(popped.time >= now_);
    now_ = popped.time;
    ++events_processed_;
    if (popped.tick == EventQueue::kNoTick) {
      popped.fn();
    } else if (popped.tick == EventQueue::kCpuSlice) {
      EndSlice();
    } else {
      queue_.FireTick(popped.tick, stopped_);
    }
  }
}

void Simulator::Run() { RunEvents(SimTime::Max()); }

void Simulator::RunUntil(SimTime deadline) {
  OD_CHECK(deadline >= now_);
  RunEvents(deadline);
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
}

std::vector<ProcessId> Simulator::RunnablePids() const {
  std::vector<ProcessId> pids;
  pids.reserve(run_queue_.size());
  for (size_t i = 0; i < run_queue_.size(); ++i) {
    pids.push_back(run_queue_[i].pid);
  }
  return pids;
}

void Simulator::set_cpu_quantum(SimDuration quantum) {
  OD_CHECK(quantum > SimDuration::Zero());
  OD_CHECK(run_queue_.empty());
  quantum_ = quantum;
}

void Simulator::set_cpu_speed(double speed) {
  OD_CHECK(speed > 0.0 && speed <= 1.0);
  cpu_speed_ = speed;
}

void Simulator::SetContext(SimTime now, ProcessId pid, ProcedureId proc) {
  if (pid == current_pid_ && proc == current_proc_) {
    return;
  }
  current_pid_ = pid;
  current_proc_ = proc;
  const bool busy = pid != kIdlePid;
  for (const CpuSwitchHook& hook : cpu_observers_) {
    hook.fn(hook.object, now, pid, proc, busy);
  }
}

void Simulator::SubmitWork(ProcessId pid, ProcedureId proc, SimDuration work,
                           EventFn on_complete) {
  OD_CHECK(work > SimDuration::Zero());
  run_queue_.push_back(WorkItem{pid, proc, work, std::move(on_complete)});
  if (!cpu_dispatching_) {
    Dispatch(now_);
  }
}

void Simulator::Dispatch(SimTime now) {
  if (run_queue_.empty()) {
    cpu_dispatching_ = false;
    SetContext(now, kIdlePid, kIdleProc);
    return;
  }
  cpu_dispatching_ = true;
  // Read before SetContext: an observer may submit work, and a push can
  // move the queue's items.
  const WorkItem& item = run_queue_.front();
  const SimDuration remaining = item.remaining;
  SetContext(now, item.pid, item.proc);
  // The slice is bounded by the quantum in wall time; at reduced clock
  // speed it consumes proportionally less of the item's remaining work.
  SimDuration max_work_this_quantum = quantum_ * cpu_speed_;
  if (max_work_this_quantum <= SimDuration::Zero()) {
    // quantum * speed rounded to zero microseconds (sub-µs quantum or
    // extreme clock scaling).  A zero-length slice would reschedule at the
    // same timestamp forever; guarantee at least 1 µs of work per slice.
    max_work_this_quantum = SimDuration::Micros(1);
  }
  SimDuration work =
      remaining < max_work_this_quantum ? remaining : max_work_this_quantum;
  SimDuration wall = work * (1.0 / cpu_speed_);
  // Minimum-progress invariant: every slice advances the clock and retires
  // work.  wall >= work holds because speed <= 1 and SimTime scaling
  // rounds half-up, so the per-slice wall/work rounding drift is at most
  // half a microsecond and never goes negative.
  OD_CHECK(work > SimDuration::Zero() && wall >= work);
  slice_work_ = work;
  queue_.ArmCpuSlice(now + wall);
}

void Simulator::EndSlice() {
  OD_CHECK(!run_queue_.empty());
  WorkItem& front = run_queue_.front();
  front.remaining -= slice_work_;
  if (front.remaining <= SimDuration::Zero()) {
    WorkItem done = run_queue_.pop_front();
    if (done.on_complete) {
      done.on_complete();
    }
  } else if (run_queue_.size() > 1) {
    // Round-robin rotation.
    run_queue_.push_back(run_queue_.pop_front());
  }
  Dispatch(now_);
}

}  // namespace odsim
