// Gauge-drift sentinel: the learned model as a cross-check on the gauge
// (DESIGN.md §11).
//
// The regression at the heart of this file: the telemetry guard's
// per-sample validation bounds readings at kMaxPlausibleWatts (15 W).  A
// gauge whose scale drifts by 1.2x reads the ~9.8 W laptop as ~11.8 W —
// inside the bound, so every sample passes validation, health stays
// kHealthy, and the residual estimate silently absorbs a ~20% energy bias.
// The first test pins that hole open (it is the documented behavior
// without the sentinel); the rest prove the learned-model cross-check
// closes it.

#include "src/energy/goal_director.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/energy/learned_estimator.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
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

 private:
  std::string name_;
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
};

// The idle laptop draws ~9.8 W; the noiseless multimeter samples at 10 Hz.
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

// The sub-plausible step fault every test below injects: 1.2x scale during
// [120 s, 420 s).  ~11.8 W readings, under the 15 W plausibility bar.
void ArmSubPlausibleStep(Rig& rig) {
  rig.sim.Schedule(odsim::SimDuration::Seconds(120), [&rig] {
    rig.monitor.telemetry_faults()->set_gauge_scale(1.2);
  });
  rig.sim.Schedule(odsim::SimDuration::Seconds(420), [&rig] {
    rig.monitor.telemetry_faults()->set_gauge_scale(1.0);
  });
}

// Red half of the regression pair: without the sentinel the 1.2x fault
// sails through every validation defense and biases the residual by the full
// 0.2 * 9.8 W * 300 s ~ 590 J.  If this test ever starts failing because
// validation rejects the samples, the sentinel tests below have lost their
// reason to exist — re-examine both together.
TEST(DriftSentinelTest, SubPlausibleDriftPassesValidationSilently) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600));
  ArmSubPlausibleStep(rig);
  director.Start(false);
  rig.sim.RunUntil(odsim::SimTime::Seconds(400));
  // Mid-fault: every defense is blind.
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  EXPECT_EQ(director.telemetry().invalid_samples(), 0);
  EXPECT_EQ(director.telemetry().safe_mode_entries(), 0);
  rig.sim.RunUntil(odsim::SimTime::Seconds(600));
  double truth = supply.ResidualJoules(odsim::SimTime::Seconds(600));
  double bias = truth - director.EstimatedResidualJoules();
  // The silent bias is the fault's full integrated excess.
  EXPECT_GT(bias, 450.0);
  director.Stop();
}

// Green half: same fault, sentinel armed.  Detection while the readings
// stay individually plausible, residual error within 10% of the bias the
// red half demonstrated, and hysteretic recovery once the scale reverts.
TEST(DriftSentinelTest, SentinelCatchesSubPlausibleDrift) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirectorConfig config;
  config.drift_sentinel.enabled = true;
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600), config);
  LearnedEstimator learned(&rig.laptop->machine(), rig.sim.Now());
  director.AttachLearnedEstimator(&learned);
  ArmSubPlausibleStep(rig);
  director.Start(false);

  rig.sim.RunUntil(odsim::SimTime::Seconds(300));
  // Caught, while per-sample validation still sees nothing.
  EXPECT_EQ(director.health(), ControllerHealth::kGaugeDrift);
  EXPECT_EQ(director.telemetry().invalid_samples(), 0);
  EXPECT_EQ(director.telemetry().safe_mode_entries(), 0);
  ASSERT_TRUE(director.drift_sentinel()->first_detected().has_value());
  double detected = director.drift_sentinel()->first_detected()->seconds();
  EXPECT_GE(detected, 120.0);
  // The 20 s comparison window bounds detection latency: well under a
  // minute after onset.
  EXPECT_LE(detected, 160.0);

  // Recovery: the scale reverts at 420 s; 50 in-band samples at 10 Hz lift
  // the verdict within seconds.
  rig.sim.RunUntil(odsim::SimTime::Seconds(440));
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  EXPECT_EQ(director.drift_sentinel()->entries(), 1);
  EXPECT_GT(director.drift_sentinel()->Seconds(odsim::SimTime::Seconds(440)),
            200.0);

  rig.sim.RunUntil(odsim::SimTime::Seconds(600));
  double truth = supply.ResidualJoules(odsim::SimTime::Seconds(600));
  double error = std::abs(director.EstimatedResidualJoules() - truth);
  // <= 10% of the ~590 J bias the unsentineled director absorbs.
  EXPECT_LE(error, 60.0);
  // The correction the sentinel charged back is most of that bias.
  EXPECT_GT(director.drift_sentinel()->correction_joules(), 450.0);
  director.Stop();
}

// Slow-ramp drift (the "ramp" fault kind): the scale creeps from 1.0
// toward 1.6 over four minutes, so there is no step edge anywhere — each
// reading differs from its neighbor by ~0.02 W.  The sentinel must detect
// once the accumulated scale passes its band, within a bounded latency.
TEST(DriftSentinelTest, SlowRampDriftDetectedWithinBoundedLatency) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirectorConfig config;
  config.drift_sentinel.enabled = true;
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600), config);
  LearnedEstimator learned(&rig.laptop->machine(), rig.sim.Now());
  director.AttachLearnedEstimator(&learned);

  odfault::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(odfault::FaultPlan::Parse("ramp@60+240=1.6", &plan, &error))
      << error;
  odfault::FaultTargets targets;
  targets.monitor = &rig.monitor;
  odfault::FaultInjector injector(&rig.sim, targets);
  injector.Arm(plan);
  director.Start(false);

  rig.sim.RunUntil(odsim::SimTime::Seconds(600));
  ASSERT_TRUE(director.drift_sentinel()->first_detected().has_value());
  double detected = director.drift_sentinel()->first_detected()->seconds();
  // The ramp crosses the 10% divergence band at ~100 s (scale 1.1); the
  // 20 s window average trails it.  Detection must land in that regime —
  // long before the ramp tops out, and never before the band is honestly
  // crossed.
  EXPECT_GE(detected, 95.0);
  EXPECT_LE(detected, 180.0);
  // Still sub-plausible throughout.
  EXPECT_EQ(director.telemetry().invalid_samples(), 0);

  // Residual error stays bounded even though the pre-detection creep
  // (scale < 1.1) is below anything the sentinel can see.
  double truth = supply.ResidualJoules(odsim::SimTime::Seconds(600));
  double residual_error =
      std::abs(director.EstimatedResidualJoules() - truth);
  EXPECT_LE(residual_error, 90.0);  // vs ~700 J of uncorrected ramp bias.
  director.Stop();
}

// The seam test: the learned model must consume the *corrupted* observation
// stream, never the true accounting.  With the gauge mis-scaled from the
// first sample, a model peeking at the truth would fit ~9.8 W; the honest
// model fits what the gauge reports — 1.6x that — and, because gauge and
// model then agree, the sentinel correctly has nothing to say (a gauge
// wrong from birth is indistinguishable from a legitimate calibration).
TEST(DriftSentinelTest, LearnedModelSeesCorruptedStreamNotAccounting) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirectorConfig config;
  config.drift_sentinel.enabled = true;
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600), config);
  LearnedEstimator learned(&rig.laptop->machine(), rig.sim.Now());
  director.AttachLearnedEstimator(&learned);
  rig.monitor.telemetry_faults()->set_gauge_scale(1.6);  // Before any sample.
  director.Start(false);

  rig.sim.RunUntil(odsim::SimTime::Seconds(120));
  ASSERT_TRUE(learned.model().converged());
  double true_watts = rig.laptop->machine().TotalPower();
  double ratio = learned.last_predicted_watts() / true_watts;
  EXPECT_NEAR(ratio, 1.6, 0.05);
  // Gauge and model agree, so no drift verdict — by design.
  EXPECT_EQ(director.drift_sentinel()->entries(), 0);
  EXPECT_EQ(director.health(), ControllerHealth::kHealthy);
  director.Stop();
}

// Pure-class sentinel behavior: window arithmetic, the confidence gate, and
// reset semantics, without a simulator.
TEST(DriftSentinelTest, WindowVerdictRequiresConfidenceAndBand) {
  DriftSentinel sentinel;

  auto feed = [&](int n, double gauge_w, double learned_w, bool confident) {
    for (int i = 0; i < n; ++i) {
      sentinel.AddInterval(1.0, gauge_w, learned_w, confident);
    }
  };

  feed(40, 10.0, 10.0, true);
  EXPECT_FALSE(sentinel.Diverged());  // In band.
  EXPECT_NEAR(sentinel.WindowDivergence(), 0.0, 1e-12);

  // Divergent but unconfident intervals must not convict.
  feed(40, 13.0, 10.0, false);
  EXPECT_FALSE(sentinel.Diverged());

  // Confident and out of band: verdict.
  feed(40, 13.0, 10.0, true);
  EXPECT_TRUE(sentinel.Diverged());
  EXPECT_NEAR(sentinel.WindowDivergence(), 0.3, 1e-9);
  EXPECT_NEAR(sentinel.WindowExcessJoules(), 60.0, 1e-9);

  // Reset drops the evidence; a fresh window must refill before any new
  // verdict.
  sentinel.ResetWindow();
  EXPECT_FALSE(sentinel.Diverged());
  feed(6, 13.0, 10.0, true);
  EXPECT_FALSE(sentinel.Diverged());  // Window not yet spanned.
}

TEST(DriftSentinelTest, UnderReadingGaugeConvictsToo) {
  DriftSentinel sentinel;
  for (int i = 0; i < 40; ++i) {
    sentinel.AddInterval(1.0, 8.0, 10.0, true);
  }
  EXPECT_TRUE(sentinel.Diverged());
  EXPECT_LT(sentinel.WindowExcessJoules(), 0.0);  // Signed: under-read.
}

// -- The drift policy on its own ---------------------------------------------
//
// PolicyDriver feeds one-second intervals through the sentinel the way the
// director does: the training decision first, then the verdict update.

struct PolicyDriver {
  DriftSentinel sentinel;
  double t = 0.0;
  int frozen = 0;  // Samples whose training the sentinel withheld.

  // One sample; returns the demand rate the director would feed the
  // predictor.
  double Step(double gauge_w, double learned_w, bool confident) {
    t += 1.0;
    odsim::SimTime now = odsim::SimTime::Seconds(t);
    if (!sentinel.AllowsTraining(now, confident)) {
      ++frozen;
    }
    return sentinel.Judge(now, 1.0, gauge_w, learned_w, confident);
  }
  void Feed(int n, double gauge_w, double learned_w, bool confident) {
    for (int i = 0; i < n; ++i) {
      Step(gauge_w, learned_w, confident);
    }
  }
};

// 20 s in band, then 20 s at 1.3x: the window crosses the 10 % band on the
// 7th divergent second, so 14 s accumulate toward the 25 s hold.
void AccumulateFourteenSeconds(PolicyDriver& d) {
  d.Feed(20, 10.0, 10.0, true);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 0.0);
  d.Feed(20, 13.0, 10.0, true);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 14.0);
  // Unconfident intervals displace confident ones; the 10 confident
  // divergent seconds left still make a judgeable, diverged window.
  d.Feed(10, 10.0, 10.0, false);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 24.0);
}

TEST(DriftPolicyTest, EntryHoldSurvivesUnjudgeableWindows) {
  PolicyDriver d;
  AccumulateFourteenSeconds(d);
  // Under half the window confident: unjudgeable, evidence of nothing.
  d.Feed(4, 10.0, 10.0, false);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 24.0);
  // Confident in-band seconds refill the window; until they make a quorum
  // the window stays unjudgeable and the count stands...
  d.Feed(9, 10.0, 10.0, true);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 24.0);
  // ...and the first judgeable in-band window zeroes it.
  d.Feed(1, 10.0, 10.0, true);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 0.0);
  EXPECT_FALSE(d.sentinel.drifting());
  EXPECT_EQ(d.sentinel.entries(), 0);
}

TEST(DriftPolicyTest, FreshnessHorizonAgesTheCountOut) {
  PolicyDriver d;
  AccumulateFourteenSeconds(d);
  // A window's span of sampled, unjudgeable time without fresh divergence
  // ages the count out.
  d.Feed(19, 10.0, 10.0, false);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 24.0);
  d.Feed(1, 10.0, 10.0, false);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 0.0);
  EXPECT_FALSE(d.sentinel.drifting());
}

TEST(DriftPolicyTest, ChargeBackIsWindowExcessPlusOverhang) {
  PolicyDriver d;
  d.Feed(20, 10.0, 10.0, true);
  d.Feed(30, 13.0, 10.0, true);
  EXPECT_DOUBLE_EQ(d.sentinel.out_of_band_seconds(), 24.0);
  EXPECT_FALSE(d.sentinel.drifting());
  // The 25th out-of-band second convicts, and the predictor is fed the
  // learned rate from that sample on.
  EXPECT_DOUBLE_EQ(d.Step(13.0, 10.0, true), 10.0);
  ASSERT_TRUE(d.sentinel.drifting());
  EXPECT_EQ(d.sentinel.entries(), 1);
  EXPECT_EQ(d.sentinel.first_detected(), odsim::SimTime::Seconds(51));
  // Window excess 20 s x 3 W = 60 J, plus the 5 s the hold ran past the
  // window charged at the window's rate: 60 + 5 * 60 / 20 = 75 J.
  EXPECT_DOUBLE_EQ(d.sentinel.correction_joules(), 75.0);
  // Under the verdict each sample's excess is charged as it accrues.
  EXPECT_DOUBLE_EQ(d.Step(13.0, 10.0, true), 10.0);
  EXPECT_DOUBLE_EQ(d.sentinel.correction_joules(), 78.0);
}

TEST(DriftPolicyTest, FreezeBudgetExpires) {
  PolicyDriver d;
  d.Feed(20, 10.0, 10.0, true);  // A judgeable in-band window: proven.
  // 7 % excess: suspicious (past half the band) but never a verdict.
  // Suspicion starts on the 16th second and freezes training for the
  // 60 s budget — 61 samples, 0 to 60 s into it — then training resumes
  // although the suspicion stands.
  d.Feed(200, 10.7, 10.0, true);
  EXPECT_EQ(d.frozen, 61);
  EXPECT_FALSE(d.sentinel.drifting());
}

TEST(DriftPolicyTest, ProvenLatchBlocksEarlySuspicion) {
  PolicyDriver d;
  // The same 7 % excess from the first sample: while the window is still
  // filling, the model has proven nothing, so divergence is the fit
  // settling and training goes on.
  d.Feed(20, 10.7, 10.0, true);
  EXPECT_EQ(d.frozen, 0);
  // The first full window is judgeable and inside the band, which proves
  // the model; from then on the same divergence is suspicious.
  d.Feed(1, 10.7, 10.0, true);
  EXPECT_EQ(d.frozen, 1);
}

// An armed sentinel or learned handoff with no estimator attached would do
// nothing, and its arm of an ablation would silently equal the unarmed one.
TEST(DriftSentinelDeathTest, SentinelWithoutEstimatorIsRejected) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirectorConfig config;
  config.drift_sentinel.enabled = true;
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600), config);
  EXPECT_DEATH(director.Start(false), "OD_CHECK failed");
}

TEST(DriftSentinelDeathTest, HandoffWithoutEstimatorIsRejected) {
  Rig rig;
  odpower::EnergySupply supply(&rig.laptop->accounting(), 1.0e4);
  GoalDirectorConfig config;
  config.learned_primary_when_converged = true;
  GoalDirector director(&rig.viceroy, &supply, &rig.monitor,
                        odsim::SimTime::Seconds(600), config);
  EXPECT_DEATH(director.Start(false), "OD_CHECK failed");
}

}  // namespace
}  // namespace odenergy
