#include "src/odyssey/viceroy.h"

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/odyssey/application.h"
#include "src/odyssey/warden.h"
#include "src/power/thinkpad560x.h"
#include "src/sim/simulator.h"

namespace odyssey {
namespace {

class FakeApp : public AdaptiveApplication {
 public:
  FakeApp(std::string name, int priority, int levels)
      : name_(std::move(name)), priority_(priority), spec_([levels] {
          std::vector<std::string> names;
          for (int i = 0; i < levels; ++i) {
            names.push_back("L" + std::to_string(i));
          }
          return names;
        }()) {
    fidelity_ = spec_.highest();
  }

  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }
  const FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override {
    fidelity_ = level;
    ++set_calls;
  }

  int set_calls = 0;

 private:
  std::string name_;
  int priority_;
  FidelitySpec spec_;
  int fidelity_;
};

struct Rig {
  odsim::Simulator sim;
  std::unique_ptr<odpower::Laptop> laptop = odpower::MakeThinkPad560X(&sim);
  odnet::Link link{&sim, &laptop->power_manager(), odnet::LinkConfig{}};
  Viceroy viceroy{&sim, &link, &laptop->power_manager()};
};

TEST(ViceroyTest, RegisterAndUnregister) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  EXPECT_EQ(rig.viceroy.applications().size(), 1u);
  rig.viceroy.UnregisterApplication(&app);
  EXPECT_TRUE(rig.viceroy.applications().empty());
}

TEST(ViceroyTest, UpcallChangesFidelityAndCounts) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.IssueUpcall(&app, 1);
  EXPECT_EQ(app.current_fidelity(), 1);
  EXPECT_EQ(rig.viceroy.AdaptationCount(&app), 1);
  EXPECT_EQ(rig.viceroy.TotalAdaptations(), 1);
}

TEST(ViceroyTest, NoopUpcallNotCounted) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.IssueUpcall(&app, app.current_fidelity());
  EXPECT_EQ(rig.viceroy.AdaptationCount(&app), 0);
  EXPECT_EQ(app.set_calls, 0);
}

TEST(ViceroyTest, WardenRegistryFindsByType) {
  Rig rig;
  rig.viceroy.RegisterWarden(std::make_unique<Warden>("video"));
  EXPECT_NE(rig.viceroy.FindWarden("video"), nullptr);
  EXPECT_EQ(rig.viceroy.FindWarden("speech"), nullptr);
}

TEST(ViceroyTest, ExpectationBelowWindowDegrades) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kNetworkBandwidth, 1e6, 2e6);
  rig.viceroy.NotifyResourceLevel(ResourceId::kNetworkBandwidth, 0.5e6);
  EXPECT_EQ(app.current_fidelity(), 1);  // One step down from 2.
}

TEST(ViceroyTest, ExpectationAboveWindowUpgrades) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  app.SetFidelity(0);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kNetworkBandwidth, 1e6, 2e6);
  rig.viceroy.NotifyResourceLevel(ResourceId::kNetworkBandwidth, 3e6);
  EXPECT_EQ(app.current_fidelity(), 1);
}

TEST(ViceroyTest, ExpectationInsideWindowDoesNothing) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kNetworkBandwidth, 1e6, 2e6);
  rig.viceroy.NotifyResourceLevel(ResourceId::kNetworkBandwidth, 1.5e6);
  EXPECT_EQ(app.current_fidelity(), 2);
  EXPECT_EQ(rig.viceroy.TotalAdaptations(), 0);
}

TEST(ViceroyTest, ExpectationClampedAtLadderEnds) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  app.SetFidelity(0);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kNetworkBandwidth, 1e6, 2e6);
  rig.viceroy.NotifyResourceLevel(ResourceId::kNetworkBandwidth, 0.1e6);
  EXPECT_EQ(app.current_fidelity(), 0);  // Already lowest; no change.
}

TEST(ViceroyTest, ClearExpectationStopsNotifications) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kEnergy, 100.0, 1e9);
  rig.viceroy.ClearExpectation(&app, ResourceId::kEnergy);
  rig.viceroy.NotifyResourceLevel(ResourceId::kEnergy, 1.0);
  EXPECT_EQ(rig.viceroy.TotalAdaptations(), 0);
}

TEST(ViceroyTest, ResourcesAreIndependent) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kEnergy, 100.0, 1e9);
  rig.viceroy.NotifyResourceLevel(ResourceId::kNetworkBandwidth, 0.0);
  EXPECT_EQ(rig.viceroy.TotalAdaptations(), 0);
}

odnet::BandwidthEstimate Unhealthy() {
  odnet::BandwidthEstimate estimate;
  estimate.outage = true;
  return estimate;
}

odnet::BandwidthEstimate Healthy(double bps = 2e6) {
  odnet::BandwidthEstimate estimate;
  estimate.bps = bps;
  return estimate;
}

TEST(ViceroyClampTest, UnhealthyEstimateClampsEveryAppToLowest) {
  Rig rig;
  FakeApp a("a", 0, 5);
  FakeApp b("b", 1, 3);
  rig.viceroy.RegisterApplication(&a);
  rig.viceroy.RegisterApplication(&b);

  rig.viceroy.NotifyLinkHealth(Unhealthy());
  EXPECT_TRUE(rig.viceroy.link_clamped());
  EXPECT_EQ(rig.viceroy.outage_clamps(), 1);
  EXPECT_EQ(a.current_fidelity(), 0);
  EXPECT_EQ(b.current_fidelity(), 0);
  // Further unhealthy reports are the same episode, not a new clamp.
  rig.viceroy.NotifyLinkHealth(Unhealthy());
  EXPECT_EQ(rig.viceroy.outage_clamps(), 1);
}

TEST(ViceroyClampTest, ResourceNotificationsSuppressedWhileClamped) {
  Rig rig;
  FakeApp app("a", 0, 5);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.RegisterExpectation(&app, ResourceId::kNetworkBandwidth, 1e6, 2e6);

  rig.viceroy.NotifyLinkHealth(Unhealthy());
  ASSERT_EQ(app.current_fidelity(), 0);
  // A generous bandwidth report must not upgrade past the clamp: the
  // monitor's windowed average lags the outage and cannot be trusted here.
  rig.viceroy.NotifyResourceLevel(ResourceId::kNetworkBandwidth, 3e6);
  EXPECT_EQ(app.current_fidelity(), 0);
}

TEST(ViceroyClampTest, RecoveryNeedsConsecutiveHealthyReports) {
  Rig rig;
  FakeApp app("a", 0, 5);
  rig.viceroy.RegisterApplication(&app);
  app.SetFidelity(2);  // Mid-ladder, so the restore is observable.

  rig.viceroy.NotifyLinkHealth(Unhealthy());
  ASSERT_EQ(app.current_fidelity(), 0);

  rig.viceroy.NotifyLinkHealth(Healthy());
  rig.viceroy.NotifyLinkHealth(Healthy());
  EXPECT_TRUE(rig.viceroy.link_clamped());  // Two of three: still waiting.
  // A relapse restarts the streak from zero.
  rig.viceroy.NotifyLinkHealth(Unhealthy());
  rig.viceroy.NotifyLinkHealth(Healthy());
  rig.viceroy.NotifyLinkHealth(Healthy());
  EXPECT_TRUE(rig.viceroy.link_clamped());
  rig.viceroy.NotifyLinkHealth(Healthy());
  EXPECT_FALSE(rig.viceroy.link_clamped());
  // The pre-clamp fidelity comes back, not the ladder top.
  EXPECT_EQ(app.current_fidelity(), 2);
}

TEST(ViceroyClampTest, HealthyReportsWithoutClampAreIgnored) {
  Rig rig;
  FakeApp app("a", 0, 3);
  rig.viceroy.RegisterApplication(&app);
  rig.viceroy.NotifyLinkHealth(Healthy());
  EXPECT_FALSE(rig.viceroy.link_clamped());
  EXPECT_EQ(rig.viceroy.outage_clamps(), 0);
  EXPECT_EQ(app.current_fidelity(), 2);
}

TEST(ViceroyClampTest, UnregisterDuringClampSkipsItsRestore) {
  Rig rig;
  FakeApp a("a", 0, 5);
  FakeApp b("b", 1, 5);
  rig.viceroy.RegisterApplication(&a);
  rig.viceroy.RegisterApplication(&b);
  a.SetFidelity(3);
  b.SetFidelity(4);

  rig.viceroy.NotifyLinkHealth(Unhealthy());
  rig.viceroy.UnregisterApplication(&b);
  const int b_calls = b.set_calls;
  // Three consecutive healthy reports lift the clamp.
  rig.viceroy.NotifyLinkHealth(Healthy());
  rig.viceroy.NotifyLinkHealth(Healthy());
  rig.viceroy.NotifyLinkHealth(Healthy());
  EXPECT_FALSE(rig.viceroy.link_clamped());
  EXPECT_EQ(a.current_fidelity(), 3);
  // The departed app is never touched again.
  EXPECT_EQ(b.set_calls, b_calls);
}

}  // namespace
}  // namespace odyssey
