// Goal-directed energy adaptation (Section 5).
//
// The user specifies how long the battery must last.  Twice a second the
// director compares residual energy (tracked from on-line power samples
// against a known initial value) with predicted future demand (smoothed
// power times time remaining).  When demand exceeds supply it degrades the
// lowest-priority application one fidelity step; when supply exceeds demand
// by the hysteresis margin it upgrades the highest-priority application,
// at most once per 15 seconds.  The run ends when the goal is reached or
// the supply is exhausted.
//
// The controller is the paper's; what surrounds it is not.  Each power
// sample goes first through the TelemetryGuard (validation, gap bridging,
// re-counting, safe mode) and, when a learned model is attached and the
// sentinel armed, through the DriftSentinel (the gauge cross-check).  The
// director reads their verdicts — is the sample usable, what demand rate
// to feed the predictor, did safe mode start or end — and drives the
// predictor, the safe-mode clamp, the timeline and the evaluation.

#ifndef SRC_ENERGY_GOAL_DIRECTOR_H_
#define SRC_ENERGY_GOAL_DIRECTOR_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/energy/hysteresis.h"
#include "src/energy/learned_estimator.h"
#include "src/energy/predictor.h"
#include "src/energy/telemetry_guard.h"
#include "src/odyssey/viceroy.h"
#include "src/power/supply.h"
#include "src/powerscope/power_monitor.h"

namespace odenergy {

struct GoalDirectorConfig {
  // How often supply and demand are compared (the paper: twice a second).
  odsim::SimDuration evaluation_period = odsim::SimDuration::Millis(500);
  // Smoothing half-life as a fraction of time remaining (Section 5.3's
  // sensitivity analysis chose 10%).
  double half_life_fraction = 0.10;
  HysteresisConfig hysteresis;
  // Minimum spacing between degradations, giving the smoothed estimate time
  // to reflect one step before taking the next.
  odsim::SimDuration degrade_interval = odsim::SimDuration::Seconds(5);
  // Safety margin on the measured residual: adaptation decisions treat the
  // supply as (1 - f) of the estimate.  Zero for the prototype's accurate
  // multimeter; a coarse gas gauge warrants a few percent.
  double residual_safety_fraction = 0.0;
  // Record a supply/demand timeline point at every evaluation (Figure 19).
  bool record_timeline = true;
  // Consecutive bit-identical readings before the feed is declared frozen
  // (a wedged driver repeating its last value).  0 disables: quantized
  // gauges such as SmartBattery repeat readings legitimately, so only
  // enable this for a noisy continuous source like the multimeter.
  int stale_sample_limit = 0;

  // -- Learned-model cross-check (drift sentinel) -----------------------------

  // Arms the gauge-drift sentinel; needs a LearnedEstimator attached.  The
  // default (disabled) leaves every existing behavior — and every golden —
  // untouched.
  DriftSentinelConfig drift_sentinel;
  // Calibration-withheld operation: once the learned model converges, hand
  // the residual estimate over to it (consumed energy past the handoff is
  // the learned integral, not the gauge integral).  For hardware whose
  // gauge is too coarse to integrate well — or whose calibration table was
  // never measured.  Needs a LearnedEstimator attached.
  bool learned_primary_when_converged = false;
};

// Health of the telemetry feed as judged by the director: kSuspect while a
// below-threshold streak of invalid/frozen readings is in progress,
// kSafeMode once corruption tripped the fallback policy, kGaugeDrift while
// the learned-model sentinel holds a drift verdict against the gauge (the
// readings are individually plausible — the *scale* is wrong — so the
// controller keeps adapting, on the discounted residual).
enum class ControllerHealth {
  kHealthy,
  kSuspect,
  kSafeMode,
  kGaugeDrift,
};

struct TimelinePoint {
  odsim::SimTime time;
  double residual_joules;
  double demand_joules;
  ControllerHealth health = ControllerHealth::kHealthy;
};

struct FidelityChange {
  odsim::SimTime time;
  int level;
};

enum class GoalOutcome {
  kRunning,
  kGoalMet,       // The supply lasted until the specified time.
  kExhausted,     // Residual energy reached zero before the goal.
};

class GoalDirector {
 public:
  // `monitor` is any power source implementing PowerMonitor: the
  // prototype's on-line multimeter or a SmartBattery gas gauge.
  GoalDirector(odyssey::Viceroy* viceroy, odpower::EnergySupply* supply,
               odscope::PowerMonitor* monitor, odsim::SimTime goal,
               const GoalDirectorConfig& config = GoalDirectorConfig{});

  GoalDirector(const GoalDirector&) = delete;
  GoalDirector& operator=(const GoalDirector&) = delete;

  // Begins monitoring and adaptation.  Stops the simulator when the run
  // completes (goal met or supply exhausted) if `stop_sim_on_completion`.
  // An armed sentinel or learned handoff needs an attached estimator.
  void Start(bool stop_sim_on_completion = true);
  void Stop();

  // Revises the goal mid-run (the user re-estimating battery needs).
  // Clears any pending infeasibility report: the user has respecified.
  void ExtendGoal(odsim::SimTime new_goal);

  // -- Infeasibility (Section 5.1.1) ----------------------------------------

  // "An infeasible duration is one so large that the available energy is
  // inadequate even if all applications run at lowest fidelity."  When the
  // director detects this it alerts the user as early as possible.
  using InfeasibilityFn = std::function<void(odsim::SimTime, double deficit_joules)>;
  void set_infeasibility_callback(InfeasibilityFn callback) {
    infeasibility_callback_ = std::move(callback);
  }

  // Time at which infeasibility was first reported, if it was.
  std::optional<odsim::SimTime> infeasibility_detected() const {
    return infeasibility_detected_;
  }

  odsim::SimTime goal() const { return goal_; }
  GoalOutcome outcome() const { return outcome_; }

  // -- Controller health ----------------------------------------------------

  // kSafeMode outranks kGaugeDrift, which outranks kSuspect.
  ControllerHealth health() const;
  const TelemetryGuard& telemetry() const { return guard_; }

  // -- Learned-model cross-check --------------------------------------------

  // Attaches the second estimator (and, when config.drift_sentinel.enabled,
  // arms the sentinel).  Must be called before Start(); the estimator must
  // outlive the director.
  void AttachLearnedEstimator(LearnedEstimator* learned);
  // The armed sentinel: set when config.drift_sentinel.enabled and an
  // estimator is attached.
  const std::optional<DriftSentinel>& drift_sentinel() const { return drift_; }
  // Whether the calibration-withheld handoff happened: the learned model is
  // now the primary residual estimator (learned_primary_when_converged).
  bool learned_primary_active() const { return learned_handoff_done_; }

  // Residual energy as the director believes it: initial minus measured,
  // corrected by the telemetry debit and the drift charge-back.
  double EstimatedResidualJoules() const;

  const std::vector<TimelinePoint>& timeline() const { return timeline_; }
  const std::vector<FidelityChange>& FidelityLog(
      const odyssey::AdaptiveApplication* app) const;

 private:
  void OnPowerSample(odsim::SimTime now, double watts);
  void Evaluate();
  void Complete(GoalOutcome outcome);
  // Acts on safe mode the guard entered or lifted: the clamp and the log.
  void EngageSafeMode(odsim::SimTime now, const char* reason);
  void ReleaseSafeMode(odsim::SimTime now);

  odyssey::AdaptiveApplication* PickTarget(bool degrade) const;

  odyssey::Viceroy* viceroy_;
  odpower::EnergySupply* supply_;
  odscope::PowerMonitor* monitor_;
  odsim::SimTime goal_;
  GoalDirectorConfig config_;

  DemandPredictor predictor_;
  HysteresisPolicy hysteresis_;

  bool running_ = false;
  bool stop_sim_on_completion_ = true;
  GoalOutcome outcome_ = GoalOutcome::kRunning;
  odsim::PeriodicHandle next_eval_;
  std::optional<odsim::SimTime> last_degrade_;

  TelemetryGuard guard_;
  odyssey::FidelityClamp safe_clamp_;

  LearnedEstimator* learned_ = nullptr;
  std::optional<DriftSentinel> drift_;
  // Calibration-withheld handoff: gauge-integrated consumption at the
  // moment the learned model became primary, and the learned integral then.
  bool learned_handoff_done_ = false;
  double handoff_measured_joules_ = 0.0;
  double handoff_learned_joules_ = 0.0;

  std::vector<TimelinePoint> timeline_;
  std::unordered_map<const odyssey::AdaptiveApplication*, std::vector<FidelityChange>>
      fidelity_log_;

  std::optional<odsim::SimTime> infeasible_since_;
  std::optional<odsim::SimTime> infeasibility_detected_;
  InfeasibilityFn infeasibility_callback_;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_GOAL_DIRECTOR_H_
