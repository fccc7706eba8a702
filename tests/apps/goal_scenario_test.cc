#include "src/apps/goal_scenario.h"

#include <gtest/gtest.h>

#include <string>

#include "src/net/rpc.h"

namespace odapps {
namespace {

// The RPC transport each goal-run path installs, read from inside the run
// through the workload hook.  Only the fault-plan path gets the degraded
// schedule; a loss-only run keeps the transport's default retries.
odnet::RpcConfig InstalledTransport(double loss, const std::string& plan) {
  GoalScenarioOptions options;
  options.goal = odsim::SimDuration::Seconds(30);
  options.initial_joules = 1.0e5;
  options.rpc_loss_probability = loss;
  if (!plan.empty()) {
    std::string error;
    EXPECT_TRUE(odfault::FaultPlan::Parse(plan, &options.fault_plan, &error))
        << error;
  }
  odnet::RpcConfig installed;
  options.workload_factory = [&installed](TestBed& bed) {
    installed = bed.viceroy().rpc().config();
    return std::function<void()>([] {});
  };
  RunGoalScenario(options);
  return installed;
}

TEST(GoalScenarioTransportTest, CleanRunKeepsTheDefaultTransport) {
  odnet::RpcConfig rpc = InstalledTransport(0.0, "");
  EXPECT_EQ(rpc.loss_probability, 0.0);
  EXPECT_EQ(rpc.retry_timeout, odsim::SimDuration::Seconds(2));
  EXPECT_EQ(rpc.max_retries, 7);
  EXPECT_EQ(rpc.deadline, odsim::SimDuration::Zero());
}

TEST(GoalScenarioTransportTest, LossAloneKeepsTheDefaultRetrySchedule) {
  odnet::RpcConfig rpc = InstalledTransport(0.15, "");
  EXPECT_EQ(rpc.loss_probability, 0.15);
  EXPECT_EQ(rpc.retry_timeout, odsim::SimDuration::Seconds(2));
  EXPECT_EQ(rpc.max_retries, 7);
  EXPECT_EQ(rpc.deadline, odsim::SimDuration::Zero());
}

TEST(GoalScenarioTransportTest, FaultPlanInstallsTheDegradedTransport) {
  odnet::RpcConfig rpc = InstalledTransport(0.0, "outage@10+5");
  EXPECT_EQ(rpc.loss_probability, 0.0);
  EXPECT_EQ(rpc.retry_timeout, odsim::SimDuration::Millis(500));
  EXPECT_EQ(rpc.max_retries, 5);
  EXPECT_EQ(rpc.deadline, odsim::SimDuration::Seconds(10));

  // Loss and a plan together: the degraded schedule keeps the loss.
  rpc = InstalledTransport(0.15, "outage@10+5");
  EXPECT_EQ(rpc.loss_probability, 0.15);
  EXPECT_EQ(rpc.retry_timeout, odsim::SimDuration::Millis(500));
  EXPECT_EQ(rpc.max_retries, 5);
  EXPECT_EQ(rpc.deadline, odsim::SimDuration::Seconds(10));
}

}  // namespace
}  // namespace odapps
