// Allocation budget of the fetch path.
//
// This binary replaces the global operator new with a counting one, so it
// holds only tests that measure allocations.  A fetch keeps its state in
// one pooled warden record and one pooled RPC record, and every
// continuation captures a 16-byte handle that std::function stores inline,
// so once the pools have grown a fetch allocates nothing.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/apps/fleet.h"
#include "src/apps/testbed.h"
#include "src/net/link.h"
#include "src/odyssey/viceroy.h"
#include "src/odyssey/warden.h"
#include "src/power/thinkpad560x.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line: inlined into a caller, GCC pairs the caller's `new` with
// the `free` below and reports a mismatched deallocation.
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace odyssey {
namespace {

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// One device fetching from a cached shared service, as a fleet device does.
struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  Viceroy viceroy{&sim, &link, &laptop->power_manager()};
  odserve::SharedService service{
      &sim, "distill",
      odserve::ServiceConfig{.batch_same_key = true, .cache_capacity = 8}};
  Warden* warden = viceroy.RegisterWarden(std::make_unique<Warden>("distill"),
                                          &service);

  // Issues `count` fetches of `key`, up to three at a time, and runs each
  // batch to completion.
  int Fetch(const std::string& key, int count) {
    int completed = 0;
    for (int i = 0; i < count; i += 3) {
      for (int j = i; j < count && j < i + 3; ++j) {
        warden->Fetch(key, 256, 6 * 1024, odsim::SimDuration::Millis(150),
                           [&completed](const Warden::FetchOutcome& outcome) {
                             EXPECT_EQ(outcome.status, odnet::RpcStatus::kOk);
                             ++completed;
                           });
      }
      sim.RunUntil(sim.Now() + odsim::SimDuration::Seconds(2));
    }
    return completed;
  }
};

TEST(FetchAllocTest, WarmKeyedFetchAllocatesNothing) {
  Rig rig;
  odnet::RpcConfig config;
  config.deadline = odsim::SimDuration::Seconds(30);  // Arms a timer per call.
  rig.viceroy.rpc().set_config(config);
  // Warm-up: the first fetch distils and caches the key; the pools, the
  // link queue and the event arena grow to three concurrent fetches.
  ASSERT_EQ(rig.Fetch("obj7@f3", 30), 30);

  const uint64_t before = Allocations();
  ASSERT_EQ(rig.Fetch("obj7@f3", 300), 300);
  EXPECT_EQ(Allocations() - before, 0u);
  // All but the first three fetches (one distilled, two batched onto it).
  EXPECT_EQ(rig.warden->cache_hits(), 327);
}

// A testbed warden fetching with an empty key from its dedicated server,
// as the speech, map and web apps and the scenario driver do.  The
// service keeps every queue wait for its percentiles, in a vector that
// grows by doubling: after 300 fetches it has room for 512, so the 200
// measured fetches count the fetch path's allocations alone.
TEST(FetchAllocTest, WarmTestbedFetchAllocatesNothing) {
  odapps::TestBed bed;
  Warden* warden = bed.viceroy().FindWarden("web");
  ASSERT_NE(warden, nullptr);
  int completed = 0;
  auto fetch = [&](int count) {
    for (int i = 0; i < count; ++i) {
      warden->Fetch("", 256, 6 * 1024, odsim::SimDuration::Millis(150),
                    [&completed](const Warden::FetchOutcome& outcome) {
                      EXPECT_EQ(outcome.status, odnet::RpcStatus::kOk);
                      ++completed;
                    });
      bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(1));
    }
  };
  fetch(300);
  ASSERT_EQ(completed, 300);

  const uint64_t before = Allocations();
  fetch(200);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(warden->service()->completed_requests(), 500);
}

struct FleetCount {
  uint64_t allocations = 0;
  int fetches = 0;
};

FleetCount RunCachedFleet(double goal_seconds) {
  odapps::FleetOptions options;
  options.clients = 50;
  options.seed = 7;
  options.goal = odsim::SimDuration::Seconds(goal_seconds);
  // One budget for both lengths (the fleet's 3.80 W over 600 s), so the
  // runs differ only in how long the devices fetch.
  options.initial_joules = 3.80 * 600.0;
  options.service.cache_capacity = 512;
  const uint64_t before = Allocations();
  odapps::FleetResult result = odapps::RunFleetScenario(options);
  return FleetCount{Allocations() - before, result.total_fetches};
}

// The marginal cost of a fetch in a running fleet: the two runs share their
// set-up and first 120 s, so the difference is the allocations made by the
// later fetches (and everything else the fleet does meanwhile: monitors,
// directors, the service's cache).
TEST(FetchAllocTest, CachedFleetAllocatesAtMostOncePerFetch) {
  FleetCount short_run = RunCachedFleet(120.0);
  FleetCount long_run = RunCachedFleet(600.0);
  const int fetches = long_run.fetches - short_run.fetches;
  ASSERT_GT(fetches, 1000);
  // Signed: with nothing allocated per fetch, the difference is a few
  // container regrowths that can land in either run.
  const double per_fetch = (static_cast<double>(long_run.allocations) -
                            static_cast<double>(short_run.allocations)) /
                           fetches;
  std::printf("cached fleet: %.3f allocations per fetch after warm-up "
              "(%d fetches)\n",
              per_fetch, fetches);
  EXPECT_LE(per_fetch, 1.0);
}

}  // namespace
}  // namespace odyssey
