// Discrete-event simulator.
//
// Owns the virtual clock, the pending-event set, the process table, and the
// single simulated CPU.  The CPU runs work items round-robin with a fixed
// quantum, so at every instant exactly one (pid, procedure) context is
// executing — which is what PowerScope samples and what the energy
// accountant attributes against.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <functional>
#include <type_traits>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/process.h"
#include "src/sim/time.h"
#include "src/util/check.h"
#include "src/util/fifo.h"

namespace odsim {

// Observes CPU context switches (including switches to/from idle).
class CpuObserver {
 public:
  virtual ~CpuObserver() = default;

  // Called whenever the executing (pid, procedure) changes, at time `now`.
  // `busy` is false exactly when pid == kIdlePid.
  virtual void OnCpuContextSwitch(SimTime now, ProcessId pid, ProcedureId proc,
                                  bool busy) = 0;
};

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }
  ProcessTable& processes() { return processes_; }
  const ProcessTable& processes() const { return processes_; }

  // -- Event scheduling ------------------------------------------------------

  EventHandle Schedule(SimDuration delay, EventFn fn);
  EventHandle ScheduleAt(SimTime at, EventFn fn);

  // Calls `fn` at Now() + period and every period after that, until the
  // handle is cancelled.  Subscribers with the same period and next call
  // time share one tick event and run in subscription order, as timers
  // re-arming with Schedule(period, ...) at the end of each call would.
  // The tick draws one key for all of them, so an event scheduled for its
  // instant between two subscriptions now runs after both, and one that a
  // subscriber other than the first schedules while the tick fires now
  // runs before the whole tick.  Jittered or self-ending timers stay on
  // Schedule.
  PeriodicHandle Every(SimDuration period, EventFn fn);

  // Runs until the event queue is exhausted or Stop() is called.
  void Run();

  // Runs all events with time <= deadline, then advances the clock to it.
  void RunUntil(SimTime deadline);

  // Makes Run()/RunUntil() return after the current event completes (inside
  // a tick: after the current subscriber; the next run resumes the tick).
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // Events dispatched by Run()/RunUntil() since construction: deterministic
  // for a fixed seed, so the simspeed golden and odperf signatures gate it.
  uint64_t events_processed() const { return events_processed_; }

  // -- CPU -------------------------------------------------------------------

  // Submits `work` of CPU time for the given context; `on_complete` (may be
  // null) fires when the work has fully executed.  Work from concurrent
  // submissions is interleaved round-robin.
  void SubmitWork(ProcessId pid, ProcedureId proc, SimDuration work,
                  EventFn on_complete);

  // Currently executing context.
  ProcessId current_pid() const { return current_pid_; }
  ProcedureId current_proc() const { return current_proc_; }
  bool cpu_busy() const { return current_pid_ != kIdlePid; }

  // Number of work items queued or executing.
  int runnable_count() const { return static_cast<int>(run_queue_.size()); }

  // Process ids with queued or executing work, in queue order (duplicates
  // possible).  Lets cooperative applications shed load when competing work
  // from other processes is runnable.
  std::vector<ProcessId> RunnablePids() const;

  // Observers are not owned; they must outlive the simulator's run.
  // Registration captures the observer's concrete type, so context-switch
  // dispatch goes through a flat (object, function-pointer) table with the
  // virtual hop resolved at compile time; registering through an abstract
  // pointer keeps the virtual call.  Context switches are the hottest
  // notification in the simulator, hence the registered-callback shape.
  template <typename T>
  void AddCpuObserver(T* observer) {
    static_assert(std::is_base_of_v<CpuObserver, T>,
                  "observer must implement CpuObserver");
    OD_CHECK(observer != nullptr);
    cpu_observers_.push_back(CpuSwitchHook{
        observer,
        [](void* o, SimTime now, ProcessId pid, ProcedureId proc, bool busy) {
          T* t = static_cast<T*>(o);
          if constexpr (std::is_abstract_v<T>) {
            t->OnCpuContextSwitch(now, pid, proc, busy);
          } else {
            // Qualified call: bypasses the vtable.  Sound because the
            // registered pointer's static type is the dynamic type (no
            // class in the tree derives from a concrete observer).
            t->T::OnCpuContextSwitch(now, pid, proc, busy);
          }
        }});
  }

  // Scheduling quantum (default 10 ms).  Must be set before any work is
  // submitted.
  void set_cpu_quantum(SimDuration quantum);

  // CPU speed as a fraction of nominal (clock scaling).  Work submitted in
  // nominal CPU-seconds executes at this rate: at 0.5, one second of work
  // takes two wall seconds.  Takes effect at the next scheduling boundary.
  void set_cpu_speed(double speed);

 private:
  struct WorkItem {
    ProcessId pid;
    ProcedureId proc;
    SimDuration remaining;
    EventFn on_complete;
  };

  // Dispatches events up to `deadline` until the queue runs dry or Stop().
  void RunEvents(SimTime deadline);
  // Starts a slice of the front work item, or idles the CPU.
  void Dispatch(SimTime now);
  // The pending slice end: retires slice_work_ from the front item, then
  // completes or rotates it and dispatches the next slice.
  void EndSlice();
  void SetContext(SimTime now, ProcessId pid, ProcedureId proc);

  SimTime now_;
  EventQueue queue_;
  ProcessTable processes_;
  bool stopped_ = false;
  uint64_t events_processed_ = 0;

  odutil::Fifo<WorkItem> run_queue_;
  bool cpu_dispatching_ = false;
  SimDuration slice_work_;  // Work the pending slice end retires.
  SimDuration quantum_ = SimDuration::Millis(10);
  double cpu_speed_ = 1.0;

  ProcessId current_pid_ = kIdlePid;
  ProcedureId current_proc_ = kIdleProc;
  struct CpuSwitchHook {
    void* object;
    void (*fn)(void* object, SimTime now, ProcessId pid, ProcedureId proc,
               bool busy);
  };
  std::vector<CpuSwitchHook> cpu_observers_;
};

}  // namespace odsim

#endif  // SRC_SIM_SIMULATOR_H_
