// Tie order of the CPU's slice end against the other event sources.
//
// The pending slice end is a key beside the heap and the periodic ticks,
// armed with the sequence number a Push at the same moment would take.
// These cases pin the exact interleavings that follow from that: a slice
// end and another event due at the same microsecond run in the order they
// were armed or pushed.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/simulator.h"

namespace odsim {
namespace {

// One log for everything that happens: events, completions and context
// switches, each stamped with its time in milliseconds.
struct Rig : CpuObserver {
  Simulator sim;
  ProcessId a = sim.processes().RegisterProcess("a");
  ProcessId b = sim.processes().RegisterProcess("b");
  ProcedureId proc = sim.processes().RegisterProcedure("_work");
  std::vector<std::string> log;

  Rig() { sim.AddCpuObserver(this); }

  void Log(const std::string& what) {
    log.push_back(std::to_string(sim.Now().micros() / 1000) + " " + what);
  }
  void OnCpuContextSwitch(SimTime /*now*/, ProcessId pid, ProcedureId /*proc*/,
                          bool /*busy*/) override {
    Log(pid == kIdlePid ? "idle" : "run " + sim.processes().ProcessName(pid));
  }
  void Submit(ProcessId pid, int millis) {
    sim.SubmitWork(pid, proc, SimDuration::Millis(millis), [this, pid] {
      Log("done " + sim.processes().ProcessName(pid));
    });
  }
};

using Log = std::vector<std::string>;

// Two 20 ms items alternate in 10 ms slices, whose ends fall at 10, 20, 30
// and 40 ms.  The event due at 10 ms was pushed after the first slice was
// armed, so it runs after that slice ends; the one due at 20 ms was pushed
// at 5 ms, before the second slice was armed at 10 ms, so it runs first.
TEST(CpuSliceOrderTest, SliceEndAndEventAtOneInstantRunInArmingOrder) {
  Rig rig;
  rig.Submit(rig.a, 20);
  rig.Submit(rig.b, 20);
  rig.sim.Schedule(SimDuration::Millis(10), [&] { rig.Log("event"); });
  rig.sim.Schedule(SimDuration::Millis(5), [&] {
    rig.sim.Schedule(SimDuration::Millis(15), [&] { rig.Log("event"); });
  });
  rig.sim.Run();
  EXPECT_EQ(rig.log, (Log{"0 run a", "10 run b", "10 event", "20 event",
                          "20 run a", "30 done a", "30 run b", "40 done b",
                          "40 idle"}));
  EXPECT_EQ(rig.sim.events_processed(), 7u);
}

// An event pushed before the work is submitted runs before the slice end
// due at its instant; one pushed after runs after it.
TEST(CpuSliceOrderTest, EventPushedBeforeSubmitRunsFirst) {
  Rig rig;
  rig.sim.Schedule(SimDuration::Millis(10), [&] { rig.Log("before"); });
  rig.Submit(rig.a, 10);
  rig.sim.Schedule(SimDuration::Millis(10), [&] { rig.Log("after"); });
  rig.sim.Run();
  EXPECT_EQ(rig.log, (Log{"0 run a", "10 before", "10 done a", "10 idle",
                          "10 after"}));
}

// A periodic tick keeps its place against the slice ends: it re-arms at
// the end of its call and the next slice arms at the end of the slice end,
// so whichever ran first at one boundary runs first at every later one.
TEST(CpuSliceOrderTest, TickSubscribedBeforeWorkRunsBeforeEverySliceEnd) {
  Rig rig;
  PeriodicHandle tick =
      rig.sim.Every(SimDuration::Millis(10), [&] { rig.Log("tick"); });
  rig.Submit(rig.a, 20);
  rig.Submit(rig.b, 20);
  rig.sim.RunUntil(SimTime::Millis(45));
  tick.Cancel();
  EXPECT_EQ(rig.log,
            (Log{"0 run a", "10 tick", "10 run b", "20 tick", "20 run a",
                 "30 tick", "30 done a", "30 run b", "40 tick", "40 done b",
                 "40 idle"}));
}

TEST(CpuSliceOrderTest, TickSubscribedAfterWorkRunsAfterEverySliceEnd) {
  Rig rig;
  rig.Submit(rig.a, 20);
  rig.Submit(rig.b, 20);
  PeriodicHandle tick =
      rig.sim.Every(SimDuration::Millis(10), [&] { rig.Log("tick"); });
  rig.sim.RunUntil(SimTime::Millis(45));
  tick.Cancel();
  EXPECT_EQ(rig.log,
            (Log{"0 run a", "10 run b", "10 tick", "20 run a", "20 tick",
                 "30 done a", "30 run b", "30 tick", "40 done b", "40 idle",
                 "40 tick"}));
}

// Work submitted from a completion queues while the completion runs and
// starts at the same instant once it returns: the CPU switches straight
// from the finished item to the new one, without an idle gap.
TEST(CpuSliceOrderTest, WorkSubmittedFromCompletionStartsAfterIt) {
  Rig rig;
  rig.sim.SubmitWork(rig.a, rig.proc, SimDuration::Millis(10), [&] {
    rig.Log("done a");
    rig.Submit(rig.b, 5);
    rig.Log("submitted b");
  });
  rig.sim.Run();
  EXPECT_EQ(rig.log, (Log{"0 run a", "10 done a", "10 submitted b", "10 run b",
                          "15 done b", "15 idle"}));
  EXPECT_EQ(rig.sim.events_processed(), 2u);
}

// Stop() from a completion ends the run after that slice end, which has
// already armed the next slice; the next Run() resumes it.
TEST(CpuSliceOrderTest, StopFromCompletionLeavesNextSliceArmed) {
  Rig rig;
  rig.sim.SubmitWork(rig.a, rig.proc, SimDuration::Millis(10), [&] {
    rig.Log("done a");
    rig.sim.Stop();
  });
  rig.Submit(rig.b, 30);
  rig.sim.Run();
  EXPECT_EQ(rig.sim.Now(), SimTime::Millis(10));
  EXPECT_EQ(rig.sim.events_processed(), 1u);
  EXPECT_EQ(rig.sim.current_pid(), rig.b);
  EXPECT_EQ(rig.sim.RunnablePids(), std::vector<ProcessId>{rig.b});
  EXPECT_EQ(rig.log, (Log{"0 run a", "10 done a", "10 run b"}));

  rig.sim.Run();
  EXPECT_EQ(rig.log, (Log{"0 run a", "10 done a", "10 run b", "40 done b",
                          "40 idle"}));
  EXPECT_EQ(rig.sim.events_processed(), 4u);
}

// A speed change leaves the armed slice alone and sets the length of the
// slices armed after it.  A slice is one quantum of wall time: the first
// retires 10 ms of work by 10 ms, the one armed at half speed retires 5 ms
// by 20 ms, and the last 15 ms run at full speed again, ending at 35 ms.
TEST(CpuSliceOrderTest, SpeedChangeTakesEffectAtNextBoundary) {
  Rig rig;
  rig.Submit(rig.a, 30);
  rig.sim.Schedule(SimDuration::Millis(5), [&] {
    rig.Log("half speed");
    rig.sim.set_cpu_speed(0.5);
  });
  rig.sim.Schedule(SimDuration::Millis(15), [&] {
    rig.Log("full speed");
    rig.sim.set_cpu_speed(1.0);
  });
  rig.sim.Run();
  EXPECT_EQ(rig.log, (Log{"0 run a", "5 half speed", "15 full speed",
                          "35 done a", "35 idle"}));
  // Two speed changes and four slice ends (10, 20, 30 and 35 ms).
  EXPECT_EQ(rig.sim.events_processed(), 6u);
}

}  // namespace
}  // namespace odsim
