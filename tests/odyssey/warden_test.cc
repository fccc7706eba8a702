#include "src/odyssey/warden.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/odyssey/viceroy.h"
#include "src/power/thinkpad560x.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"

namespace odyssey {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  Viceroy viceroy{&sim, &link, &laptop->power_manager()};
};

TEST(WardenTest, FetchRunsRequestServerReply) {
  Rig rig;
  Warden* warden = rig.viceroy.RegisterWarden(std::make_unique<Warden>("map"));
  odsim::SimTime done_at;
  // 512 B request (~7 ms incl. setup), 1 s server, 250 KB reply (1.005 s).
  warden->Fetch("", 512, 250000, odsim::SimDuration::Seconds(1),
                [&](const Warden::FetchOutcome&) { done_at = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_GT(done_at, odsim::SimTime::Seconds(2.0));
  EXPECT_LT(done_at, odsim::SimTime::Seconds(2.1));
}

TEST(WardenTest, DataTypeExposed) {
  Warden warden("web");
  EXPECT_EQ(warden.data_type(), "web");
}

TEST(WardenTest, RegistrationWiresViceroy) {
  Rig rig;
  Warden* warden = rig.viceroy.RegisterWarden(std::make_unique<Warden>("video"));
  EXPECT_EQ(warden->viceroy(), &rig.viceroy);
}

// A fetch's record is released when its RPC settles and then serves
// the next fetch.  A service that was stalled past the first fetch's
// deadline answers it late; that answer must not reach the next fetch.
TEST(WardenTest, LateServeAfterDeadlineLeavesTheNextFetchAlone) {
  Rig rig;
  odserve::SharedService service(&rig.sim, "distill",
                                 odserve::ServiceConfig{.cache_capacity = 4});
  Warden* warden =
      rig.viceroy.RegisterWarden(std::make_unique<Warden>("distill"), &service);
  odnet::RpcConfig config;
  config.deadline = odsim::SimDuration::Seconds(2);
  rig.viceroy.rpc().set_config(config);
  const odsim::SimDuration work = odsim::SimDuration::Millis(500);

  std::vector<Warden::FetchOutcome> outcomes;
  auto record = [&](const Warden::FetchOutcome& o) { outcomes.push_back(o); };
  // Distil "b" once so the next fetch of it is a cache hit.
  warden->Fetch("b", 256, 1024, work, record);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  ASSERT_EQ(outcomes.size(), 1u);

  // A: the stalled service holds it past the deadline.
  service.SetStalled(true);
  warden->Fetch("a", 256, 1024, work, record);
  rig.sim.RunUntil(odsim::SimTime::Seconds(8));
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[1].status, odnet::RpcStatus::kDeadlineExceeded);

  // B reuses A's record; its request waits out an outage on the link while
  // the stall clears and the service finishes A (at 8.6 s).
  rig.link.SetOutage(true);
  warden->Fetch("b", 256, 1024, work, record);
  rig.sim.RunUntil(odsim::SimTime::Seconds(8.1));
  service.SetStalled(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(9));
  EXPECT_EQ(service.completed_requests(), 2);  // "b" and A's late "a".
  ASSERT_EQ(outcomes.size(), 2u);
  rig.link.SetOutage(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(12));

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[2].status, odnet::RpcStatus::kOk);
  EXPECT_EQ(outcomes[2].serve, odserve::ServeOutcome::kCacheHit);
  EXPECT_EQ(warden->cache_hits(), 1);
  EXPECT_EQ(warden->failed_fetches(), 1);
}

TEST(WardenServerTest, RegistrationCreatesServer) {
  Rig rig;
  Warden* warden = rig.viceroy.RegisterWarden(std::make_unique<Warden>("map"));
  ASSERT_NE(warden->service(), nullptr);
  EXPECT_EQ(warden->service()->name(), "map-server");
}

TEST(WardenServerTest, ConcurrentFetchesSerializeAtServer) {
  Rig rig;
  Warden* warden = rig.viceroy.RegisterWarden(std::make_unique<Warden>("map"));
  odsim::SimTime first, second;
  // Two fetches with 2 s of server work each; small transfers.
  warden->Fetch("", 512, 1024, odsim::SimDuration::Seconds(2),
                [&](const Warden::FetchOutcome&) { first = rig.sim.Now(); });
  warden->Fetch("", 512, 1024, odsim::SimDuration::Seconds(2),
                [&](const Warden::FetchOutcome&) { second = rig.sim.Now(); });
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  // The second fetch waits for the first's server work: completions at
  // roughly 2 s and 4 s (plus transfer overheads), not both at ~2 s.
  EXPECT_GT((second - first).seconds(), 1.5);
  EXPECT_EQ(warden->service()->completed_requests(), 2);
}

}  // namespace
}  // namespace odyssey
