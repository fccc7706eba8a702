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
// -- Controller health --------------------------------------------------
//
// The director trusts nothing about its telemetry.  Every power sample is
// validated (finite, nonnegative, physically plausible) before it may
// touch the demand predictor or the residual estimate, and the director
// watches for the feed going silent or freezing.  Sustained corruption
// trips a safe mode: every application is clamped to its cheapest
// fidelity (the energy-conserving choice when consumption cannot be
// observed) and goal re-planning freezes, since decisions made on garbage
// telemetry are worse than no decisions.  Safe mode lifts — restoring the
// pre-clamp fidelities — only after a streak of consecutive valid
// samples, mirroring the viceroy's link-outage recovery hysteresis.
// Energy the monitor failed to integrate during a gap is bridged at the
// smoothed demand rate, and energy it integrated from implausible
// readings is re-counted at that rate, so the residual estimate survives
// telemetry faults with bounded error.

#ifndef SRC_ENERGY_GOAL_DIRECTOR_H_
#define SRC_ENERGY_GOAL_DIRECTOR_H_

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/energy/hysteresis.h"
#include "src/energy/learned_estimator.h"
#include "src/energy/predictor.h"
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
  // An infeasible goal (Section 5.1.1: demand exceeds supply even with
  // every application at lowest fidelity) is reported once the state has
  // persisted for a full smoothing half-life (so the estimate reflects
  // lowest-fidelity operation, not the pre-degradation transient), but at
  // least this long — early, not at exhaustion.
  double infeasibility_min_seconds = 10.0;
  // ...and only when the deficit is material: a feasible run skirts the
  // supply/demand boundary by design, so small transients must not alert.
  double infeasibility_deficit_fraction = 0.05;

  // -- Controller health (telemetry-fault tolerance) -------------------------

  // A power reading is invalid when non-finite, negative, or above this
  // bound; no state of the modeled hardware draws anywhere near it, so a
  // larger value can only be a telemetry fault (e.g. gauge drift).
  double max_plausible_watts = 15.0;
  // Consecutive invalid readings that trip safe mode.
  int invalid_sample_limit = 3;
  // A telemetry gap — no valid sample for this many sampling periods —
  // trips safe mode at the next evaluation.
  double telemetry_timeout_periods = 4.0;
  // Consecutive bit-identical readings before the feed is declared frozen
  // (a wedged driver repeating its last value).  0 disables: quantized
  // gauges such as SmartBattery repeat readings legitimately, so only
  // enable this for a noisy continuous source like the multimeter.
  int stale_sample_limit = 0;
  // Consecutive valid readings before safe mode lifts (recovery
  // hysteresis, mirroring the viceroy's link-outage clamp).
  int health_recovery_samples = 8;

  // -- Learned-model cross-check (drift sentinel) -----------------------------

  // Configuration for the gauge-drift sentinel.  Only consulted when a
  // LearnedEstimator is attached and `drift_sentinel.enabled`; the default
  // (disabled) leaves every existing behavior — and every golden —
  // untouched.
  DriftSentinelConfig drift_sentinel;
  // Calibration-withheld operation: once the learned model converges, hand
  // the residual estimate over to it (consumed energy past the handoff is
  // the learned integral, not the gauge integral).  For hardware whose
  // gauge is too coarse to integrate well — or whose calibration table was
  // never measured.
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

  ControllerHealth health() const { return health_; }
  // Distinct safe-mode episodes so far.
  int safe_mode_entries() const { return safe_mode_entries_; }
  // Cumulative time spent in safe mode up to `now` (open episode included).
  double SafeModeSeconds(odsim::SimTime now) const;
  // Readings rejected as invalid (non-finite, negative, implausible, or
  // frozen past the stale limit).
  int invalid_samples() const { return invalid_samples_; }
  // Telemetry gaps bridged (distinct spans with no valid sample).
  int telemetry_gaps() const { return telemetry_gaps_; }
  // Net correction applied to the residual estimate for energy the monitor
  // missed (gaps, positive debit) or miscounted (implausible readings,
  // either sign).
  double telemetry_debit_joules() const { return telemetry_debit_joules_; }

  // -- Learned-model cross-check --------------------------------------------

  // Attaches the second estimator (and, when config.drift_sentinel.enabled,
  // arms the sentinel).  Must be called before Start(); the estimator must
  // outlive the director.
  void AttachLearnedEstimator(LearnedEstimator* learned);
  const LearnedEstimator* learned_estimator() const { return learned_; }

  // Distinct drift episodes declared by the sentinel.
  int drift_entries() const { return drift_entries_; }
  // Cumulative time under a drift verdict up to `now` (open episode
  // included).
  double DriftSeconds(odsim::SimTime now) const;
  // Energy charged back to the residual estimate for gauge/learned
  // disagreement while drifting (positive when the gauge over-reads).
  double drift_correction_joules() const { return drift_correction_joules_; }
  // Time the sentinel first declared drift, if it ever did.
  std::optional<odsim::SimTime> first_drift_detected() const {
    return first_drift_detected_;
  }
  // Whether the calibration-withheld handoff happened: the learned model is
  // now the primary residual estimator (learned_primary_when_converged).
  bool learned_primary_active() const { return learned_handoff_done_; }

  // Residual energy as the director believes it: initial minus measured,
  // corrected by the telemetry debit.
  double EstimatedResidualJoules() const;

  // Residual energy, ground truth.
  double TrueResidualJoules(odsim::SimTime now) { return supply_->ResidualJoules(now); }

  const std::vector<TimelinePoint>& timeline() const { return timeline_; }
  const std::vector<FidelityChange>& FidelityLog(
      const odyssey::AdaptiveApplication* app) const;

  const DemandPredictor& predictor() const { return predictor_; }

 private:
  void OnPowerSample(odsim::SimTime now, double watts);
  void Evaluate();
  // Schedules the next Evaluate one evaluation period from now.
  void ArmEvaluation();
  void Complete(GoalOutcome outcome);
  void EnterSafeMode(odsim::SimTime now, const char* reason);
  void ExitSafeMode(odsim::SimTime now);
  void EnterDrift(odsim::SimTime now);
  void ExitDrift(odsim::SimTime now, const char* reason);
  void LogFidelityChange(odyssey::AdaptiveApplication* app, int level,
                         odsim::SimTime now);

  odyssey::AdaptiveApplication* PickDegradeTarget() const;
  odyssey::AdaptiveApplication* PickUpgradeTarget() const;

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
  odsim::EventHandle next_eval_;
  odsim::SimTime last_degrade_ = odsim::SimTime::Zero();
  bool has_degraded_ = false;

  // Controller health state machine.
  ControllerHealth health_ = ControllerHealth::kHealthy;
  odyssey::FidelityClamp safe_clamp_;
  odsim::SimTime start_time_ = odsim::SimTime::Zero();
  odsim::SimTime last_valid_sample_time_ = odsim::SimTime::Zero();
  // Last sample the monitor integrated, valid or not: finite rejected
  // readings are integrated then re-counted, so the gap bridge must not
  // cover them again.
  odsim::SimTime last_integrated_time_ = odsim::SimTime::Zero();
  double last_valid_watts_ = 0.0;
  bool has_valid_sample_ = false;
  int consecutive_invalid_ = 0;
  int identical_streak_ = 0;
  int recovery_streak_ = 0;
  int invalid_samples_ = 0;
  int telemetry_gaps_ = 0;
  int safe_mode_entries_ = 0;
  double safe_mode_seconds_ = 0.0;
  odsim::SimTime safe_mode_entered_ = odsim::SimTime::Zero();
  double telemetry_debit_joules_ = 0.0;

  // Learned-model cross-check state.
  LearnedEstimator* learned_ = nullptr;
  std::optional<DriftSentinel> sentinel_;
  bool drifting_ = false;
  // When the comparison window first turned suspicious (past half the
  // band, continuously).  Unset whenever the window is back under the
  // threshold.
  std::optional<odsim::SimTime> suspect_since_;
  // Latched once the sentinel has seen a judgeable *in-band* window: the
  // model has demonstrated it can match a healthy gauge.  Until then,
  // suspicion must not freeze training — freezing a still-converging fit
  // pins its honest error in place and ratchets it into a false verdict.
  bool sentinel_proven_ = false;
  // Accumulated seconds the window has spent out of band (past the full
  // band) since the last judgeable in-band window.  Survives safe-mode
  // churn on purpose: an implausible gauge corroborates drift, and the
  // window resets it forces would otherwise restart a continuous entry
  // clock forever.
  double diverged_accum_seconds_ = 0.0;
  // Sampled (non-safe-mode) seconds since the last out-of-band window;
  // ages the accumulator out when divergence stops renewing.
  double inband_accum_seconds_ = 0.0;
  int drift_entries_ = 0;
  int drift_recovery_streak_ = 0;
  double drift_seconds_ = 0.0;
  odsim::SimTime drift_entered_ = odsim::SimTime::Zero();
  double drift_correction_joules_ = 0.0;
  std::optional<odsim::SimTime> first_drift_detected_;
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
