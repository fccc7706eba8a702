// Allocation budget of an RPC call.
//
// An allocation gate (tests/alloc_count.h).  A call keeps its state in one
// pooled record, and the completion it hands a compute is 16 trivially
// copyable bytes, so a compute that schedules it for later allocates
// nothing.  The fixed-server-time Call keeps its outcome-blind completion
// in that record too, so it allocates nothing either.

#include <cstdint>
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/net/rpc.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"
#include "tests/alloc_count.h"

namespace odnet {
namespace {

using odtest::Allocations;

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  Link link{&sim, &laptop->power_manager(), LinkConfig{}};
  RpcClient rpc{&sim, &link, &laptop->power_manager(), 42};
  int completed = 0;

  // Issues `count` fixed-time calls, two at a time, each run to completion.
  void Calls(int count) {
    for (int i = 0; i < count; i += 2) {
      for (int j = 0; j < 2; ++j) {
        rpc.Call(256, 4096, odsim::SimDuration::Millis(50),
                 [this] { ++completed; });
      }
      sim.Run();
    }
  }
};

TEST(RpcAllocTest, WarmFixedTimeCallAllocatesNothing) {
  Rig rig;
  // Warm-up: the call pool, the link queue and the event arena grow to two
  // concurrent calls.
  rig.Calls(20);
  ASSERT_EQ(rig.completed, 20);

  const uint64_t before = Allocations();
  rig.Calls(400);
  const uint64_t allocations = Allocations() - before;
  ASSERT_EQ(rig.completed, 420);
  std::printf("fixed-time call: %.3f allocations per warm call\n",
              static_cast<double>(allocations) / 400.0);
  EXPECT_EQ(allocations, 0u);
}

// A compute that holds its completion across a server delay, as a warden's
// submit to its service does, costs nothing once warm.
TEST(RpcAllocTest, WarmComputeCallAllocatesNothing) {
  Rig rig;
  auto calls = [&rig](int count) {
    for (int i = 0; i < count; ++i) {
      rig.rpc.Call(
          256, 4096,
          [&rig](RpcClient::ComputeDone done) {
            rig.sim.Schedule(odsim::SimDuration::Millis(50),
                             [done] { done(/*served=*/true); });
          },
          [&rig](RpcStatus status) {
            EXPECT_EQ(status, RpcStatus::kOk);
            ++rig.completed;
          });
      rig.sim.Run();
    }
  };
  calls(20);

  const uint64_t before = Allocations();
  calls(400);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(rig.completed, 420);
}

}  // namespace
}  // namespace odnet
