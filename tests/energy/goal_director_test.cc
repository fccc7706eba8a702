#include "src/energy/goal_director.h"

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/power/thinkpad560x.h"
#include "src/powerscope/online_monitor.h"
#include "src/sim/simulator.h"

namespace odenergy {
namespace {

class FakeApp : public odyssey::AdaptiveApplication {
 public:
  FakeApp(std::string name, int priority)
      : name_(std::move(name)),
        priority_(priority),
        spec_({"L0", "L1", "L2"}),
        fidelity_(spec_.highest()) {}

  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override { fidelity_ = level; }

  void Force(int level) { fidelity_ = level; }

 private:
  std::string name_;
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
};

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  odyssey::Viceroy viceroy{&sim, &link, &laptop->power_manager()};
  FakeApp low{"low", 0};
  FakeApp high{"high", 10};
  odscope::OnlineMonitor monitor{&sim, &laptop->machine(),
                                 [] {
                                   odscope::OnlineMonitorConfig c;
                                   c.noise_watts = 0.0;
                                   return c;
                                 }(),
                                 1};

  Rig() {
    viceroy.RegisterApplication(&low);
    viceroy.RegisterApplication(&high);
  }
};

// The idle laptop draws ~9.8 W (display bright, disk and network idle).

TEST(GoalDirectorTest, DegradesLowestPriorityFirst) {
  Rig rig;
  // 9.8 W for 100 s needs ~980 J; give much less so demand exceeds supply.
  odpower::EnergySupply supply(&rig.laptop->accounting(), 300.0);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(100));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(8));
  EXPECT_LT(rig.low.current_fidelity(), rig.low.fidelity_spec().highest());
  EXPECT_EQ(rig.high.current_fidelity(), rig.high.fidelity_spec().highest());
  director.Stop();
}

TEST(GoalDirectorTest, DegradesHigherPriorityOnlyAfterLowExhausted) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 100.0);
  GoalDirectorConfig config;
  config.degrade_interval = odsim::SimDuration::Millis(500);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(200), config);
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_EQ(rig.low.current_fidelity(), 0);
  EXPECT_LT(rig.high.current_fidelity(), rig.high.fidelity_spec().highest());
  director.Stop();
}

TEST(GoalDirectorTest, UpgradesHighestPriorityFirst) {
  Rig rig;
  rig.low.Force(0);
  rig.high.Force(0);
  // Huge supply: surplus exceeds any margin.
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(60));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_GT(rig.high.current_fidelity(), 0);
  EXPECT_EQ(rig.low.current_fidelity(), 0);  // Upgrades capped at 1/15 s.
  director.Stop();
}

TEST(GoalDirectorTest, UpgradeCapFifteenSeconds) {
  Rig rig;
  rig.low.Force(0);
  rig.high.Force(0);
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(300));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(40));
  // At most one upgrade per 15 s in ~40 s -> no more than 3 total.
  int total = rig.viceroy.TotalAdaptations();
  EXPECT_GE(total, 2);
  EXPECT_LE(total, 3);
  director.Stop();
}

TEST(GoalDirectorTest, GoalMetStopsSimulator) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(30));
  director.Start(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(100));
  EXPECT_EQ(director.outcome(), GoalOutcome::kGoalMet);
  // The director stopped the run at the goal.
  EXPECT_LT(rig.sim.Now(), odsim::SimTime::Seconds(32));
}

TEST(GoalDirectorTest, ExhaustionDetected) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 50.0);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(1000));
  director.Start(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(100));
  EXPECT_EQ(director.outcome(), GoalOutcome::kExhausted);
  // ~50 J at ~9.8 W idle-bright drains in ~6-8 s (apps degrade en route).
  EXPECT_LT(rig.sim.Now(), odsim::SimTime::Seconds(20));
}

TEST(GoalDirectorTest, ExtendGoalPostpones) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(30));
  director.Start(true);
  rig.sim.Schedule(odsim::SimDuration::Seconds(10), [&] {
    director.ExtendGoal(odsim::SimTime::Seconds(60));
  });
  rig.sim.RunUntil(odsim::SimTime::Seconds(100));
  EXPECT_EQ(director.outcome(), GoalOutcome::kGoalMet);
  EXPECT_GE(rig.sim.Now(), odsim::SimTime::Seconds(60));
}

TEST(GoalDirectorTest, TimelineRecorded) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e6);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(10));
  director.Start(true);
  rig.sim.RunUntil(odsim::SimTime::Seconds(20));
  const std::vector<TimelinePoint>& timeline = director.timeline();
  // Two evaluations per second for 10 s.
  EXPECT_GE(timeline.size(), 18u);
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GT(timeline[i].time, timeline[i - 1].time);
    EXPECT_GT(timeline[i].demand_joules, 0.0);
  }
}

TEST(GoalDirectorTest, EstimatedResidualTracksTruth) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 10000.0);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(60));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(30));
  double estimated = director.EstimatedResidualJoules();
  double truth = supply.ResidualJoules(rig.sim.Now());
  EXPECT_NEAR(estimated, truth, 0.01 * truth);
  director.Stop();
}

TEST(GoalDirectorTest, FidelityLogMatchesAdaptations) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 100.0);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(200));
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(5));
  director.Stop();
  EXPECT_EQ(static_cast<int>(director.FidelityLog(&rig.low).size()),
            rig.viceroy.AdaptationCount(&rig.low));
}

}  // namespace
}  // namespace odenergy
