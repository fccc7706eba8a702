// Failure injection: lossy wireless channels cost retransmissions, time,
// and energy, but calls still complete.

#include <functional>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/rpc.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odnet {
namespace {

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  Link link{&sim, &laptop->power_manager(), LinkConfig{}};
  RpcClient rpc{&sim, &link, &laptop->power_manager(), 42};
};

TEST(RpcLossTest, NoLossMeansNoRetransmissions) {
  Rig rig;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    rig.rpc.Call(1000, 1000, odsim::SimDuration::Millis(100),
                 [&] { ++completed; });
    rig.sim.Run();
  }
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(rig.rpc.retransmissions(), 0);
}

TEST(RpcLossTest, LossyChannelRetransmitsButCompletes) {
  Rig rig;
  RpcConfig config;
  config.loss_probability = 0.3;
  config.retry_timeout = odsim::SimDuration::Millis(500);
  rig.rpc.set_config(config);

  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    rig.rpc.Call(1000, 1000, odsim::SimDuration::Millis(100),
                 [&] { ++completed; });
    rig.sim.Run();
  }
  EXPECT_EQ(completed, 50);
  // ~30% per message, two messages per attempt: expect dozens of retries.
  EXPECT_GT(rig.rpc.retransmissions(), 10);
}

TEST(RpcLossTest, LossCostsTimeAndEnergy) {
  auto measure = [](double loss) {
    Rig rig;
    RpcConfig config;
    config.loss_probability = loss;
    config.retry_timeout = odsim::SimDuration::Millis(500);
    rig.rpc.set_config(config);
    rig.laptop->accounting().Reset(rig.sim.Now());
    for (int i = 0; i < 30; ++i) {
      rig.rpc.Call(20000, 2000, odsim::SimDuration::Millis(200), nullptr);
      rig.sim.Run();
    }
    return std::pair<double, double>(
        rig.laptop->accounting().TotalJoules(rig.sim.Now()),
        rig.sim.Now().seconds());
  };
  auto [clean_joules, clean_seconds] = measure(0.0);
  auto [lossy_joules, lossy_seconds] = measure(0.4);
  EXPECT_GT(lossy_seconds, clean_seconds);
  EXPECT_GT(lossy_joules, clean_joules);
}

TEST(RpcLossTest, GivesUpAfterMaxRetries) {
  Rig rig;
  RpcConfig config;
  config.loss_probability = 0.95;  // Nearly dead channel.
  config.retry_timeout = odsim::SimDuration::Millis(100);
  config.max_retries = 2;
  rig.rpc.set_config(config);

  bool completed = false;
  rig.rpc.Call(1000, 1000, odsim::SimDuration::Millis(100), [&] { completed = true; });
  rig.sim.Run();
  // Completion still fires (upper layers are not wedged)...
  EXPECT_TRUE(completed);
  // ...after at most max_retries retransmissions for this call.
  EXPECT_LE(rig.rpc.retransmissions(), 2);
}

TEST(RpcLossTest, LossSequenceIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    odsim::Simulator sim;
    auto laptop = odpower::MakeThinkPad560X(&sim);
    Link link{&sim, &laptop->power_manager(), LinkConfig{}};
    RpcClient rpc{&sim, &link, &laptop->power_manager(), seed};
    RpcConfig config;
    config.loss_probability = 0.3;
    config.retry_timeout = odsim::SimDuration::Millis(200);
    rpc.set_config(config);
    for (int i = 0; i < 40; ++i) {
      rpc.Call(2000, 2000, odsim::SimDuration::Millis(50), nullptr);
      sim.Run();
    }
    return std::tuple<int, int, int, double>(
        rpc.retransmissions(), rpc.request_losses(), rpc.reply_losses(),
        sim.Now().seconds());
  };
  // Same seed: the whole loss/retry history replays bit for bit.
  EXPECT_EQ(run(7), run(7));
  // Different seed: a different draw sequence.
  EXPECT_NE(run(7), run(8));
}

TEST(RpcLossTest, RequestAndReplyLossesAccountedSeparately) {
  Rig rig;
  RpcConfig config;
  config.loss_probability = 0.4;
  config.retry_timeout = odsim::SimDuration::Millis(100);
  rig.rpc.set_config(config);
  for (int i = 0; i < 60; ++i) {
    rig.rpc.Call(1000, 1000, odsim::SimDuration::Millis(20), nullptr);
    rig.sim.Run();
  }
  // Both directions lose messages at 40%.
  EXPECT_GT(rig.rpc.request_losses(), 0);
  EXPECT_GT(rig.rpc.reply_losses(), 0);
  // Every retransmission was provoked by exactly one lost message; losses
  // not retried are the final loss of a call that exhausted its retries.
  const int losses = rig.rpc.request_losses() + rig.rpc.reply_losses();
  EXPECT_LE(rig.rpc.retransmissions(), losses);
  EXPECT_LE(losses - rig.rpc.retransmissions(), rig.rpc.retries_exhausted());
}

TEST(RpcLossTest, RetransmissionEnergyLandsOnWaveLAN) {
  auto wavelan_joules = [](double loss) {
    Rig rig;
    RpcConfig config;
    config.loss_probability = loss;
    config.retry_timeout = odsim::SimDuration::Millis(200);
    rig.rpc.set_config(config);
    for (int i = 0; i < 30; ++i) {
      rig.rpc.Call(20000, 2000, odsim::SimDuration::Millis(100), nullptr);
      rig.sim.Run();
    }
    int index = -1;
    for (int i = 0; i < rig.laptop->machine().component_count(); ++i) {
      if (rig.laptop->machine().component(i).name() == "WaveLAN") {
        index = i;
      }
    }
    return rig.laptop->accounting().ComponentJoules(index, rig.sim.Now());
  };
  // The retransmitted bytes are paid for by the wireless interface.
  EXPECT_GT(wavelan_joules(0.4), wavelan_joules(0.0));
}

TEST(RpcLossTest, RetryBackoffIsCappedExponentialWithJitter) {
  Rig rig;
  RpcConfig config;
  config.loss_probability = 0.9999;  // Effectively dead channel.
  config.retry_timeout = odsim::SimDuration::Seconds(4);
  config.max_retries = 4;
  rig.rpc.set_config(config);

  RpcStatus status = RpcStatus::kOk;
  rig.rpc.CallWithStatus(1000, 1000, [](odsim::EventFn done) { done(); },
                         [&](RpcStatus s) { status = s; });
  rig.sim.Run();
  EXPECT_EQ(status, RpcStatus::kRetriesExhausted);
  EXPECT_EQ(rig.rpc.retransmissions(), 4);
  // Waits are 4, 8, 16, 16 s (capped at 16 s), each jittered by at most
  // ±10%; the whole exchange must fall inside those bounds plus a little
  // transmission time.
  const double elapsed = rig.sim.Now().seconds();
  EXPECT_GE(elapsed, 44.0 * 0.9);
  EXPECT_LE(elapsed, 44.0 * 1.1 + 0.2);
}

TEST(RpcLossTest, DeadlineBoundsACallAcrossAnOutage) {
  Rig rig;
  rig.link.SetOutage(true);  // Nothing can transmit at all.
  RpcConfig config;
  config.retry_timeout = odsim::SimDuration::Millis(500);
  config.deadline = odsim::SimDuration::Seconds(2);
  rig.rpc.set_config(config);

  RpcStatus status = RpcStatus::kOk;
  rig.rpc.CallWithStatus(1000, 1000, [](odsim::EventFn done) { done(); },
                         [&](RpcStatus s) { status = s; });
  rig.sim.Run();
  // The call fails with the typed deadline status at exactly the deadline —
  // the liveness bound no retransmission policy can provide on a parked
  // queue.
  EXPECT_EQ(status, RpcStatus::kDeadlineExceeded);
  EXPECT_EQ(rig.rpc.deadlines_exceeded(), 1);
  EXPECT_DOUBLE_EQ(rig.sim.Now().seconds(), 2.0);
  // And the pending transfer no longer wedges the interface accounting.
  rig.link.SetOutage(false);
  rig.sim.Run();
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

TEST(RpcLossTest, InterfaceReleasedAfterLossyCall) {
  Rig rig;
  rig.laptop->power_manager().SetHardwarePmEnabled(true);
  RpcConfig config;
  config.loss_probability = 0.5;
  config.retry_timeout = odsim::SimDuration::Millis(200);
  rig.rpc.set_config(config);
  rig.rpc.Call(1000, 1000, odsim::SimDuration::Millis(100), nullptr);
  rig.sim.Run();
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
  EXPECT_EQ(rig.laptop->wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
}


// Pooled call records: a settled call's record serves the next call, and
// every continuation of the settled call that is still in flight (a send
// parked by an outage, a refusal, a cancelled retry) must leave the new
// call alone.  A fresh client has one record, so call B below always
// reuses call A's.

TEST(RpcLossTest, StaleSendAfterDeadlineLeavesTheNextCallAlone) {
  Rig rig;
  RpcConfig config;
  config.deadline = odsim::SimDuration::Seconds(2);
  rig.rpc.set_config(config);
  rig.link.SetOutage(true);

  int a_computes = 0;
  RpcStatus a_status = RpcStatus::kOk;
  rig.rpc.CallWithStatus(
      1000, 1000,
      [&](odsim::EventFn done) {
        ++a_computes;
        done();
      },
      [&](RpcStatus s) { a_status = s; });
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  ASSERT_EQ(a_status, RpcStatus::kDeadlineExceeded);

  // B's request queues behind A's, which still sits in the link.
  std::vector<odsim::SimTime> b_computed;
  std::vector<RpcStatus> b_status;
  rig.rpc.CallWithStatus(
      1000, 1000,
      [&](odsim::EventFn done) {
        b_computed.push_back(rig.sim.Now());
        done();
      },
      [&](RpcStatus s) { b_status.push_back(s); });
  rig.link.SetOutage(false);
  rig.sim.Run();

  EXPECT_EQ(a_computes, 0);
  // A's stale send drains first and must not advance B: B computes once,
  // after its own request, two transfers after the outage cleared.
  ASSERT_EQ(b_computed.size(), 1u);
  EXPECT_EQ(b_computed[0],
            odsim::SimTime::Seconds(3) + rig.link.TransferTime(1000) * 2.0);
  ASSERT_EQ(b_status.size(), 1u);
  EXPECT_EQ(b_status[0], RpcStatus::kOk);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

TEST(RpcLossTest, ReplyLostRetryDoesNotCarryIntoTheNextCall) {
  Rig rig;
  RpcConfig clean;
  clean.retry_timeout = odsim::SimDuration::Millis(500);
  clean.max_retries = 1;
  RpcConfig lossy = clean;
  lossy.loss_probability = 0.9999;

  // Each call's request arrives on a clean channel, then the channel turns
  // (all but certainly) lossy: the reply is lost, the one retry's request
  // is lost too, and the call gives up after exactly one retransmission.
  auto lossy_call = [&](std::vector<RpcStatus>* status, int* computes) {
    rig.rpc.set_config(clean);
    rig.rpc.CallWithStatus(
        1000, 1000,
        [&rig, &lossy, computes](odsim::EventFn done) {
          ++*computes;
          rig.rpc.set_config(lossy);
          done();
        },
        [status](RpcStatus s) { status->push_back(s); });
    rig.sim.Run();
  };
  std::vector<RpcStatus> a_status;
  int a_computes = 0;
  lossy_call(&a_status, &a_computes);
  ASSERT_EQ(a_status, std::vector<RpcStatus>{RpcStatus::kRetriesExhausted});
  ASSERT_EQ(rig.rpc.reply_losses(), 1);
  ASSERT_EQ(rig.rpc.request_losses(), 1);
  ASSERT_EQ(rig.rpc.retransmissions(), 1);

  // B reuses A's record, which A left at its last attempt with both loss
  // flags set.  B must start over: a full retry budget of its own.
  std::vector<RpcStatus> b_status;
  int b_computes = 0;
  lossy_call(&b_status, &b_computes);
  EXPECT_EQ(b_status, std::vector<RpcStatus>{RpcStatus::kRetriesExhausted});
  EXPECT_EQ(b_computes, 1);
  EXPECT_EQ(rig.rpc.reply_losses(), 2);
  EXPECT_EQ(rig.rpc.request_losses(), 2);
  EXPECT_EQ(rig.rpc.retransmissions(), 2);
  EXPECT_EQ(rig.rpc.retries_exhausted(), 2);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

TEST(RpcLossTest, StaleRefusalDoesNotRejectTheNextCall) {
  Rig rig;
  RpcConfig config;
  config.deadline = odsim::SimDuration::Seconds(2);
  rig.rpc.set_config(config);

  // The server refuses A, and the channel dies before the refusal is sent.
  RpcStatus a_status = RpcStatus::kOk;
  rig.rpc.CallWithOutcome(
      1000, 1000,
      [&](std::function<void(bool)> done) {
        rig.link.SetOutage(true);
        done(false);
      },
      [&](RpcStatus s) { a_status = s; });
  rig.sim.RunUntil(odsim::SimTime::Seconds(3));
  ASSERT_EQ(a_status, RpcStatus::kDeadlineExceeded);
  ASSERT_EQ(rig.rpc.rejected(), 1);

  std::vector<RpcStatus> b_status;
  rig.rpc.CallWithOutcome(
      1000, 1000, [](std::function<void(bool)> done) { done(true); },
      [&](RpcStatus s) { b_status.push_back(s); });
  rig.link.SetOutage(false);
  rig.sim.Run();
  // A's refusal drains ahead of B's request and must not settle B.
  ASSERT_EQ(b_status.size(), 1u);
  EXPECT_EQ(b_status[0], RpcStatus::kOk);
  EXPECT_EQ(rig.rpc.rejected(), 1);
  EXPECT_FALSE(rig.laptop->power_manager().network_in_use());
}

}  // namespace
}  // namespace odnet
