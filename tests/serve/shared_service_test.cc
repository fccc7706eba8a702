#include "src/serve/shared_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/net/link.h"
#include "src/odyssey/application.h"
#include "src/odyssey/viceroy.h"
#include "src/odyssey/warden.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odserve {
namespace {

odsim::SimDuration Sec(double s) { return odsim::SimDuration::Seconds(s); }

// -- The paper's remote server: a dedicated default service -----------------

// A testbed warden's server is a default-config service with one session,
// driven through the outcome-blind Submit.

TEST(RemoteServerTest, SingleRequestTakesItsWork) {
  odsim::Simulator sim;
  SharedService server(&sim, "test-server");
  int session = server.OpenSession("c");
  odsim::SimTime done_at;
  server.Submit(session, Sec(2), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, odsim::SimTime::Seconds(2));
  EXPECT_EQ(server.completed_requests(), 1);
  EXPECT_DOUBLE_EQ(server.total_busy_seconds(), 2.0);
}

TEST(RemoteServerTest, RequestsQueueFifo) {
  odsim::Simulator sim;
  SharedService server(&sim, "test-server");
  int session = server.OpenSession("c");
  odsim::SimTime first, second;
  server.Submit(session, Sec(2), [&] { first = sim.Now(); });
  server.Submit(session, Sec(1), [&] { second = sim.Now(); });
  EXPECT_EQ(server.queue_depth(), 2);
  sim.Run();
  EXPECT_EQ(first, odsim::SimTime::Seconds(2));
  EXPECT_EQ(second, odsim::SimTime::Seconds(3));
  EXPECT_EQ(server.queue_depth(), 0);
}

TEST(RemoteServerTest, SpeedFactorScalesWork) {
  odsim::Simulator sim;
  SharedService server(&sim, "fast-server", ServiceConfig{.speed_factor = 2.0});
  int session = server.OpenSession("c");
  odsim::SimTime done_at;
  server.Submit(session, Sec(2), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, odsim::SimTime::Seconds(1));
}

// Regression: a stall clear landing at the same timestamp as new submits
// must drain in submission order — backlog first, then the same-timestamp
// submits in the order they arrived, regardless of whether their events run
// before or after the clear's event.
TEST(RemoteServerTest, StallClearAtSubmitTimestampDrainsInSubmissionOrder) {
  odsim::Simulator sim;
  SharedService server(&sim, "test-server");
  int session = server.OpenSession("c");
  server.SetStalled(true);

  std::vector<int> order;
  std::vector<odsim::SimTime> at;
  auto track = [&](int id) {
    return [&, id] {
      order.push_back(id);
      at.push_back(sim.Now());
    };
  };
  server.Submit(session, Sec(1), track(0));  // Backlog.

  // Three same-timestamp events at t=3: submit, clear, submit.
  sim.Schedule(Sec(3), [&] { server.Submit(session, Sec(1), track(1)); });
  sim.Schedule(Sec(3), [&] { server.SetStalled(false); });
  sim.Schedule(Sec(3), [&] { server.Submit(session, Sec(1), track(2)); });
  sim.Run();

  ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(at[0], odsim::SimTime::Seconds(4));
  EXPECT_EQ(at[1], odsim::SimTime::Seconds(5));
  EXPECT_EQ(at[2], odsim::SimTime::Seconds(6));
}

TEST(RemoteServerTest, ZeroWorkCompletesImmediately) {
  odsim::Simulator sim;
  SharedService server(&sim, "s");
  int session = server.OpenSession("c");
  bool done = false;
  server.Submit(session, odsim::SimDuration::Zero(), [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
}

// Submit's completion cannot tell a served request from a cache hit and
// has no reject channel, so it refuses any service that could do either.
TEST(SharedServiceDeathTest, SubmitRefusesCachingBatchingOrBoundedService) {
  for (const ServiceConfig& config :
       {ServiceConfig{.max_queue = 4}, ServiceConfig{.batch_same_key = true},
        ServiceConfig{.cache_capacity = 4}}) {
    EXPECT_DEATH(
        {
          odsim::Simulator sim;
          SharedService service(&sim, "s", config);
          service.Submit(service.OpenSession("c"), Sec(1), nullptr);
        },
        "outcome-blind Submit");
  }
}

// A completion that resubmits its own key must queue fresh work, never
// join the request that has just been served.  The key is empty, as a
// testbed fetch's is, so it also equals the served request's moved-from
// key.
TEST(SharedServiceBatchTest, CompletionResubmittingItsKeyQueuesAfresh) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.batch_same_key = true});
  int session = service.OpenSession("c");
  std::vector<double> done;
  service.SubmitKeyed(session, "", Sec(1), [&](ServeOutcome) {
    done.push_back(sim.Now().seconds());
    service.SubmitKeyed(session, "", Sec(1), [&](ServeOutcome) {
      done.push_back(sim.Now().seconds());
    });
  });
  sim.Run();
  EXPECT_EQ(done, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(service.batch_joins(), 0);
  EXPECT_DOUBLE_EQ(service.total_busy_seconds(), 2.0);
}

// -- Cache: deterministic LRU eviction at capacity ---------------------------

TEST(SharedServiceCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.cache_capacity = 2});
  int session = service.OpenSession("c");

  // Serve A then B: cache holds {B, A} (most recent first).
  service.SubmitKeyed(session, "A", Sec(1), nullptr);
  sim.Run();
  service.SubmitKeyed(session, "B", Sec(1), nullptr);
  sim.Run();
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_EQ(service.cache_evictions(), 0);

  // A hit on A refreshes its recency: cache order becomes {A, B}.
  ServeOutcome outcome = ServeOutcome::kServed;
  service.SubmitKeyed(session, "A", Sec(1), [&](ServeOutcome o) { outcome = o; });
  EXPECT_EQ(outcome, ServeOutcome::kCacheHit);

  // Serving C at capacity evicts B — the least recently used — not A.
  service.SubmitKeyed(session, "C", Sec(1), nullptr);
  sim.Run();
  EXPECT_EQ(service.cache_size(), 2u);
  EXPECT_EQ(service.cache_evictions(), 1);

  outcome = ServeOutcome::kServed;
  service.SubmitKeyed(session, "A", Sec(1), [&](ServeOutcome o) { outcome = o; });
  EXPECT_EQ(outcome, ServeOutcome::kCacheHit);

  // B was evicted: it queues for compute instead of hitting.
  bool served_b = false;
  service.SubmitKeyed(session, "B", Sec(1),
                      [&](ServeOutcome o) { served_b = o == ServeOutcome::kServed; });
  sim.Run();
  EXPECT_TRUE(served_b);
  EXPECT_EQ(service.cache_evictions(), 2);  // Re-serving B evicted C.
}

// -- Batching: identical keys across sessions share one compute unit --------

TEST(SharedServiceBatchTest, IdenticalKeysAcrossSessionsBatch) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.batch_same_key = true});
  int alice = service.OpenSession("alice");
  int bob = service.OpenSession("bob");
  int carol = service.OpenSession("carol");

  odsim::SimTime done_alice, done_bob, done_carol;
  service.SubmitKeyed(alice, "tile", Sec(4),
                      [&](ServeOutcome) { done_alice = sim.Now(); });
  // Bob joins the in-service request; Carol joins the same batch later.
  service.SubmitKeyed(bob, "tile", Sec(4),
                      [&](ServeOutcome) { done_bob = sim.Now(); });
  sim.Schedule(Sec(1), [&] {
    service.SubmitKeyed(carol, "tile", Sec(4),
                        [&](ServeOutcome) { done_carol = sim.Now(); });
  });
  sim.Run();

  // One unit of compute, every waiter completed at the same instant.
  EXPECT_EQ(done_alice, odsim::SimTime::Seconds(4));
  EXPECT_EQ(done_bob, done_alice);
  EXPECT_EQ(done_carol, done_alice);
  EXPECT_DOUBLE_EQ(service.total_busy_seconds(), 4.0);
  EXPECT_EQ(service.batch_joins(), 2);
  EXPECT_EQ(service.completed_requests(), 3);
}

// Joins find queued requests by key, and a request leaves the key index
// when it enters service: a later submit of its key joins it in service
// while it runs, and queues afresh once it has finished.  The keys are too
// long for the string's inline buffer, so an index entry left behind would
// still match its key after the request's storage is gone.
TEST(SharedServiceBatchTest, JoinsFollowRequestsFromQueueIntoService) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.batch_same_key = true});
  int session = service.OpenSession("c");
  std::vector<std::pair<std::string, double>> done;
  auto submit = [&](const std::string& name) {
    service.SubmitKeyed(session, "distilled-object-" + name, Sec(1),
                        [&done, &sim, name](ServeOutcome) {
                          done.emplace_back(name, sim.Now().seconds());
                        });
  };
  submit("X");  // In service 0-1 s.
  submit("A");  // Queued; in service 1-2 s.
  submit("B");  // Queued; in service 2-3 s.
  submit("B");  // Joins the queued B.
  sim.Schedule(Sec(1.5), [&] { submit("A"); });  // Joins A in service.
  sim.Schedule(Sec(2.5), [&] {
    submit("A");  // A has finished: queues again, in service 3-4 s.
    submit("B");  // Joins B in service.
  });
  sim.Run();

  const std::vector<std::pair<std::string, double>> expected = {
      {"X", 1.0}, {"A", 2.0}, {"A", 2.0}, {"B", 3.0},
      {"B", 3.0}, {"B", 3.0}, {"A", 4.0}};
  EXPECT_EQ(done, expected);
  EXPECT_EQ(service.batch_joins(), 3);
  EXPECT_DOUBLE_EQ(service.total_busy_seconds(), 4.0);
}

TEST(SharedServiceBatchTest, DifferentKeysDoNotBatch) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.batch_same_key = true});
  int session = service.OpenSession("c");
  service.SubmitKeyed(session, "A", Sec(1), nullptr);
  service.SubmitKeyed(session, "B", Sec(1), nullptr);
  sim.Run();
  EXPECT_EQ(service.batch_joins(), 0);
  EXPECT_DOUBLE_EQ(service.total_busy_seconds(), 2.0);
}

// -- Admission control -------------------------------------------------------

TEST(SharedServiceAdmissionTest, FullQueueRejectsSynchronously) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.max_queue = 2});
  int session = service.OpenSession("c");

  std::vector<ServeOutcome> outcomes;
  for (int i = 0; i < 3; ++i) {
    service.SubmitKeyed(session, "k" + std::to_string(i), Sec(1),
                        [&](ServeOutcome o) { outcomes.push_back(o); });
  }
  // The third submit found depth == max_queue and was refused immediately.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], ServeOutcome::kRejected);
  EXPECT_EQ(service.rejected_requests(), 1);

  sim.Run();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1], ServeOutcome::kServed);
  EXPECT_EQ(outcomes[2], ServeOutcome::kServed);
  EXPECT_EQ(service.completed_requests(), 2);
}

TEST(SharedServiceAdmissionTest, CacheHitBypassesAdmission) {
  odsim::Simulator sim;
  SharedService service(&sim, "s",
                        ServiceConfig{.max_queue = 1, .cache_capacity = 4});
  int session = service.OpenSession("c");
  service.SubmitKeyed(session, "A", Sec(1), nullptr);
  sim.Run();

  // Fill the queue, then ask for cached content: served, not rejected.
  service.SubmitKeyed(session, "B", Sec(5), nullptr);
  ServeOutcome outcome = ServeOutcome::kServed;
  service.SubmitKeyed(session, "A", Sec(1), [&](ServeOutcome o) { outcome = o; });
  EXPECT_EQ(outcome, ServeOutcome::kCacheHit);
  EXPECT_EQ(service.rejected_requests(), 0);
  sim.Run();
}

// -- Stall drain: same-timestamp clear vs submit tie-break -------------------

// The documented contract: requests drain in submission order when a stall
// clears, including submits landing at the very timestamp of the clear.
// Whether a same-timestamp submit's event runs before or after the clear's
// event, it was submitted after the stalled backlog — so it serves last.
TEST(SharedServiceStallTest, SameTimestampClearDrainsInSubmissionOrder) {
  odsim::Simulator sim;
  SharedService service(&sim, "s");
  int session = service.OpenSession("c");

  service.SetStalled(true);
  std::vector<int> order;
  std::vector<odsim::SimTime> at;
  auto track = [&](int id) {
    return [&, id](ServeOutcome) {
      order.push_back(id);
      at.push_back(sim.Now());
    };
  };
  // Backlog queued while wedged.
  service.SubmitKeyed(session, "q0", Sec(1), track(0));
  service.SubmitKeyed(session, "q1", Sec(1), track(1));

  // At t=5, three events share the timestamp: a submit scheduled before the
  // clear, the clear itself, and a submit scheduled after the clear.
  sim.Schedule(Sec(5), [&] { service.SubmitKeyed(session, "q2", Sec(1), track(2)); });
  sim.Schedule(Sec(5), [&] { service.SetStalled(false); });
  sim.Schedule(Sec(5), [&] { service.SubmitKeyed(session, "q3", Sec(1), track(3)); });
  sim.Run();

  ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // Service resumed at the clear instant: completions at 6, 7, 8, 9 s.
  EXPECT_EQ(at[0], odsim::SimTime::Seconds(6));
  EXPECT_EQ(at[1], odsim::SimTime::Seconds(7));
  EXPECT_EQ(at[2], odsim::SimTime::Seconds(8));
  EXPECT_EQ(at[3], odsim::SimTime::Seconds(9));
}

TEST(SharedServiceStallTest, CacheServesWhileStalled) {
  odsim::Simulator sim;
  SharedService service(&sim, "s", ServiceConfig{.cache_capacity = 4});
  int session = service.OpenSession("c");
  service.SubmitKeyed(session, "A", Sec(1), nullptr);
  sim.Run();

  service.SetStalled(true);
  ServeOutcome outcome = ServeOutcome::kServed;
  service.SubmitKeyed(session, "A", Sec(1), [&](ServeOutcome o) { outcome = o; });
  EXPECT_EQ(outcome, ServeOutcome::kCacheHit);
}

// -- Admission reject -> viceroy overload clamp -> hysteresis recovery -------

class LadderApp : public odyssey::AdaptiveApplication {
 public:
  LadderApp() : spec_({"min", "low", "mid", "high"}) { fidelity_ = 2; }

  const std::string& name() const override { return name_; }
  int priority() const override { return 0; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override { fidelity_ = level; }

 private:
  std::string name_ = "ladder";
  odyssey::FidelitySpec spec_;
  int fidelity_;
};

TEST(SharedServiceOverloadTest, RejectsClampThenRecoveryRestoresFidelity) {
  odsim::Simulator sim;
  auto laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link(&sim, &laptop->power_manager(), odnet::LinkConfig{});
  odyssey::Viceroy viceroy(&sim, &link, &laptop->power_manager());

  SharedService service(&sim, "distill", ServiceConfig{.max_queue = 1});
  LadderApp app;
  viceroy.RegisterApplication(&app);
  odyssey::Warden* warden = viceroy.RegisterWarden(
      std::make_unique<odyssey::Warden>("distill"), &service);

  // Wedge the service: a long request occupies the single admission slot.
  int filler = service.OpenSession("filler");
  service.SubmitKeyed(filler, "block", Sec(30), nullptr);

  // Three fetches, spaced out, all refused at the full queue.  The
  // third consecutive reject engages the overload clamp: fidelity drops
  // from mid-ladder to the floor.
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(Sec(1 + i), [&, i] {
      warden->Fetch("k" + std::to_string(i), 256, 1024, Sec(1), nullptr);
    });
  }
  sim.RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(warden->rejected_fetches(), 3);
  EXPECT_TRUE(viceroy.overload_clamped());
  EXPECT_EQ(viceroy.overload_clamps(), 1);
  EXPECT_EQ(app.current_fidelity(), 0);

  // After the blocker drains, successful fetches accumulate.  Two are not
  // enough at hysteresis 3; the third releases the clamp and restores the
  // exact pre-clamp fidelity.
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(Sec(35 + 5 * i), [&, i] {
      warden->Fetch("ok" + std::to_string(i), 256, 1024, Sec(1), nullptr);
    });
  }
  sim.RunUntil(odsim::SimTime::Seconds(44));
  EXPECT_TRUE(viceroy.overload_clamped());  // Two of three: still clamped.
  sim.RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_FALSE(viceroy.overload_clamped());
  EXPECT_EQ(app.current_fidelity(), 2);
  EXPECT_EQ(viceroy.overload_clamps(), 1);  // Same episode, no re-engage.
}

// -- Queue-wait statistics ---------------------------------------------------

// The service's mean and percentiles against the formulas over the wait log
// in arrival order: the mean sums the log front to back, and a percentile
// selects its nearest rank from a copy.  The service keeps a running sum
// instead and selects in place, which must give the same bits.
TEST(SharedServiceWaitTest, StatisticsMatchArrivalOrderFormulasBitwise) {
  odsim::Simulator sim;
  SharedService server(&sim, "waits");
  const int session = server.OpenSession("c");
  odutil::Rng rng(2024);
  // Each wait in arrival order, recovered from its completion: a default
  // service starts a request, then completes it its work later.
  std::vector<double> waits;
  auto submit = [&](int count) {
    odsim::SimTime at = sim.Now();
    for (int i = 0; i < count; ++i) {
      at = at + odsim::SimDuration::Micros(rng.UniformInt(0, 30000));
      const odsim::SimDuration work =
          odsim::SimDuration::Micros(rng.UniformInt(1, 25000));
      sim.ScheduleAt(at, [&, work] {
        const odsim::SimTime submitted = sim.Now();
        server.Submit(session, work, [&, submitted, work] {
          waits.push_back((sim.Now() - work - submitted).seconds());
        });
      });
    }
    sim.Run();
  };
  auto mean = [&] {
    double sum = 0.0;
    for (double w : waits) {
      sum += w;
    }
    return sum / static_cast<double>(waits.size());
  };
  auto percentile = [&](double p) {
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(waits.size())));
    if (rank > 0) {
      --rank;
    }
    rank = std::min(rank, waits.size() - 1);
    std::vector<double> copy = waits;
    auto nth = copy.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(copy.begin(), nth, copy.end());
    return *nth;
  };
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };

  submit(1500);
  ASSERT_EQ(waits.size(), 1500u);
  EXPECT_EQ(bits(server.MeanWaitSeconds()), bits(mean()));
  // Queries reorder the service's log; in any order and repeated, each
  // gives the same bits, and the mean does not move.
  const std::vector<double> ps = {95, 50, 0, 100, 5, 50, 99.9, 95, 0, 37.5};
  for (double p : ps) {
    EXPECT_EQ(bits(server.WaitPercentileSeconds(p)), bits(percentile(p))) << p;
  }
  for (auto it = ps.rbegin(); it != ps.rend(); ++it) {
    EXPECT_EQ(bits(server.WaitPercentileSeconds(*it)), bits(percentile(*it)))
        << *it;
  }
  EXPECT_EQ(bits(server.MeanWaitSeconds()), bits(mean()));

  // Waits recorded after the log was reordered.
  submit(1500);
  ASSERT_EQ(waits.size(), 3000u);
  EXPECT_GT(percentile(95), percentile(50));  // The stream queues.
  EXPECT_EQ(bits(server.MeanWaitSeconds()), bits(mean()));
  for (double p : ps) {
    EXPECT_EQ(bits(server.WaitPercentileSeconds(p)), bits(percentile(p))) << p;
  }
  EXPECT_EQ(bits(server.MeanWaitSeconds()), bits(mean()));
}

}  // namespace
}  // namespace odserve
