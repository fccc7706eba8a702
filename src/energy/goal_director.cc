#include "src/energy/goal_director.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace odenergy {
namespace {

// An infeasible goal (Section 5.1.1: demand exceeds supply even with every
// application at lowest fidelity) is reported once the state has
// persisted for a full smoothing half-life (so the estimate reflects
// lowest-fidelity operation, not the pre-degradation transient), but at
// least this long — early, not at exhaustion.
constexpr double kInfeasibilityMinSeconds = 10.0;
// ...and only when the deficit is material: a feasible run skirts the
// supply/demand boundary by design, so small transients must not alert.
constexpr double kInfeasibilityDeficitFraction = 0.05;

}  // namespace

GoalDirector::GoalDirector(odyssey::Viceroy* viceroy, odpower::EnergySupply* supply,
                           odscope::PowerMonitor* monitor, odsim::SimTime goal,
                           const GoalDirectorConfig& config)
    : viceroy_(viceroy),
      supply_(supply),
      monitor_(monitor),
      goal_(goal),
      config_(config),
      predictor_(config.half_life_fraction),
      hysteresis_(config.hysteresis),
      guard_(config.stale_sample_limit),
      safe_clamp_(viceroy) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(supply != nullptr);
  OD_CHECK(monitor != nullptr);
}

void GoalDirector::Start(bool stop_sim_on_completion) {
  OD_CHECK(!running_);
  // Without an estimator an armed sentinel or handoff would silently do
  // nothing, and its arm of an ablation would equal the unarmed one.
  OD_CHECK(learned_ != nullptr || (!config_.drift_sentinel.enabled &&
                                   !config_.learned_primary_when_converged));
  running_ = true;
  stop_sim_on_completion_ = stop_sim_on_completion;
  outcome_ = GoalOutcome::kRunning;
  guard_.Start(viceroy_->sim()->Now());

  monitor_->set_callback([this](odsim::SimTime now, double watts) {
    OnPowerSample(now, watts);
  });
  monitor_->Start();
  next_eval_ = viceroy_->sim()->Every(config_.evaluation_period,
                                      [this] { Evaluate(); });
}

void GoalDirector::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  next_eval_.Cancel();
  monitor_->Stop();
}

void GoalDirector::ExtendGoal(odsim::SimTime new_goal) {
  OD_CHECK(new_goal > viceroy_->sim()->Now());
  goal_ = new_goal;
  // The user has respecified; re-evaluate feasibility from scratch.
  infeasible_since_.reset();
  infeasibility_detected_.reset();
}

void GoalDirector::AttachLearnedEstimator(LearnedEstimator* learned) {
  OD_CHECK(!running_);
  OD_CHECK(learned != nullptr);
  learned_ = learned;
  if (config_.drift_sentinel.enabled) {
    drift_.emplace();
  }
}

double GoalDirector::EstimatedResidualJoules() const {
  // Calibration-withheld mode: past the handoff the learned integral is the
  // consumption estimate — the gauge was only trusted long enough to
  // bootstrap the fit.
  if (learned_handoff_done_) {
    double consumed = handoff_measured_joules_ +
                      (learned_->learned_joules() - handoff_learned_joules_);
    return std::max(0.0, supply_->initial_joules() - consumed -
                             guard_.debit_joules());
  }
  // The drift correction backs out the energy the sentinel attributed to
  // gauge scale error: positive when the gauge over-read, so it is *added*
  // back to the residual.
  double correction = drift_.has_value() ? drift_->correction_joules() : 0.0;
  return std::max(0.0, supply_->initial_joules() - monitor_->measured_joules() -
                           guard_.debit_joules() + correction);
}

ControllerHealth GoalDirector::health() const {
  if (guard_.safe_mode()) {
    return ControllerHealth::kSafeMode;
  }
  if (drift_.has_value() && drift_->drifting()) {
    return ControllerHealth::kGaugeDrift;
  }
  return guard_.suspect() ? ControllerHealth::kSuspect
                          : ControllerHealth::kHealthy;
}

const std::vector<FidelityChange>& GoalDirector::FidelityLog(
    const odyssey::AdaptiveApplication* app) const {
  static const std::vector<FidelityChange> kEmpty;
  auto it = fidelity_log_.find(app);
  return it == fidelity_log_.end() ? kEmpty : it->second;
}

void GoalDirector::EngageSafeMode(odsim::SimTime now, const char* reason) {
  // A drift verdict is subsumed: safe mode distrusts the whole feed, not
  // just its scale.
  if (drift_.has_value()) {
    drift_->ExitDrift(now, "superseded by safe mode");
  }
  OD_LOG_WARN(
      "goal director: telemetry %s at t=%.1fs — safe mode: clamping to "
      "lowest fidelity, freezing goal re-planning",
      reason, now.seconds());
  safe_clamp_.Engage([this, now](odyssey::AdaptiveApplication* app,
                                 int level) {
    fidelity_log_[app].push_back(FidelityChange{now, level});
  });
}

void GoalDirector::ReleaseSafeMode(odsim::SimTime now) {
  // A drift verdict convicted from safe mode's valid samples outlives the
  // safe mode that corroborated it: health() reports kGaugeDrift again.
  guard_.ExitSafeMode(now);
  OD_LOG_INFO("goal director: telemetry recovered at t=%.1fs — safe mode off",
              now.seconds());
  safe_clamp_.Release([this, now](odyssey::AdaptiveApplication* app,
                                  int level) {
    fidelity_log_[app].push_back(FidelityChange{now, level});
  });
}

void GoalDirector::OnPowerSample(odsim::SimTime now, double watts) {
  double period = monitor_->period().seconds();
  TelemetryVerdict verdict =
      guard_.OnSample(now, watts, period, predictor_.smoothed_watts());
  if (verdict.safe_mode_entered) {
    EngageSafeMode(now, "invalid readings");
  }
  if (!verdict.usable) {
    return;  // Invalid readings never touch the predictor.
  }

  // Learned-model cross-check.  The second estimator sees exactly the
  // reading the director sees — the delivered (possibly corrupted) gauge
  // value, never the analytic accounting.  Training freezes in safe mode,
  // and wherever the sentinel withholds it.
  double demand_watts = watts;
  if (learned_ != nullptr) {
    bool train = !guard_.safe_mode();
    if (drift_.has_value() &&
        !drift_->AllowsTraining(now, DriftSentinel::Confident(*learned_))) {
      train = false;
    }
    double predicted = learned_->OnSample(now, watts, train);

    if (config_.learned_primary_when_converged && !learned_handoff_done_ &&
        learned_->converged_once()) {
      learned_handoff_done_ = true;
      handoff_measured_joules_ = monitor_->measured_joules();
      handoff_learned_joules_ = learned_->learned_joules();
      OD_LOG_INFO(
          "goal director: learned model converged at t=%.1fs — residual "
          "estimate handed over (gauge integral %.1f J at handoff)",
          now.seconds(), handoff_measured_joules_);
    }

    // The cross-check runs on every *valid* sample, safe mode included: a
    // gauge whose scale error also trips the plausibility bars spends the
    // whole fault bouncing through safe mode, and the valid troughs that
    // leak through are the only evidence there is.  The sentinel judges
    // the gauge, not the controller — safe mode corroborates distrust, it
    // does not stand the cross-check down.
    if (drift_.has_value() && !learned_handoff_done_) {
      demand_watts = drift_->Judge(now, period, watts, predicted,
                                   DriftSentinel::Confident(*learned_));
    }
  }

  double remaining = (goal_ - now).seconds();
  predictor_.AddSample(demand_watts, period, std::max(0.0, remaining));
  if (verdict.safe_mode_lifted) {
    ReleaseSafeMode(now);
  }
}

odyssey::AdaptiveApplication* GoalDirector::PickTarget(bool degrade) const {
  // Degrade the lowest-priority application that can still go down;
  // upgrade the highest-priority one that can still go up.
  odyssey::AdaptiveApplication* best = nullptr;
  for (odyssey::AdaptiveApplication* app : viceroy_->applications()) {
    if (degrade ? app->AtLowestFidelity() : app->AtHighestFidelity()) {
      continue;
    }
    if (best == nullptr || (degrade ? app->priority() < best->priority()
                                    : app->priority() > best->priority())) {
      best = app;
    }
  }
  return best;
}

void GoalDirector::Evaluate() {
  odsim::SimTime now = viceroy_->sim()->Now();

  double residual_true = supply_->ResidualJoules(now);
  if (residual_true <= 0.0) {
    Complete(GoalOutcome::kExhausted);
    return;
  }
  if (now >= goal_) {
    Complete(GoalOutcome::kGoalMet);
    return;
  }

  if (guard_.SilenceTripsSafeMode(now, monitor_->period().seconds())) {
    EngageSafeMode(now, "gap (no samples)");
  }

  double residual =
      EstimatedResidualJoules() * (1.0 - config_.residual_safety_fraction);
  double remaining = (goal_ - now).seconds();
  double demand = predictor_.PredictedDemandJoules(remaining);

  if (config_.record_timeline) {
    timeline_.push_back(TimelinePoint{now, residual, demand, health()});
  }

  if (guard_.safe_mode()) {
    // Goal re-planning is frozen: fidelity is already clamped to the
    // cheapest levels, and adaptation decisions computed from corrupted
    // telemetry would be noise.  Completion checks above still run — they
    // use the true supply, not telemetry.
    infeasible_since_.reset();
    return;
  }

  AdaptAction action =
      hysteresis_.Decide(demand, residual, supply_->initial_joules(), now);
  if (action == AdaptAction::kDegrade) {
    bool allowed = !last_degrade_.has_value() ||
                   now - *last_degrade_ >= config_.degrade_interval;
    odyssey::AdaptiveApplication* app = PickTarget(/*degrade=*/true);
    if (allowed && app != nullptr) {
      int level = app->current_fidelity() - 1;
      viceroy_->IssueUpcall(app, level);
      fidelity_log_[app].push_back(FidelityChange{now, level});
      last_degrade_ = now;
      infeasible_since_.reset();
    } else if (app == nullptr &&
               demand > residual * (1.0 + kInfeasibilityDeficitFraction)) {
      // Demand materially exceeds supply with everything already at lowest
      // fidelity: the goal may be infeasible.  Alert once this has persisted
      // long enough for the smoothed estimate to reflect lowest-fidelity
      // operation (one half-life), rather than the pre-degradation transient.
      if (!infeasible_since_.has_value()) {
        infeasible_since_ = now;
      }
      double persistence = (now - *infeasible_since_).seconds();
      double required = std::max(kInfeasibilityMinSeconds,
                                 config_.half_life_fraction * remaining);
      if (persistence >= required && !infeasibility_detected_.has_value()) {
        infeasibility_detected_ = now;
        OD_LOG_WARN(
            "goal director: goal infeasible at t=%.1fs — demand %.0f J exceeds "
            "residual %.0f J at lowest fidelity",
            now.seconds(), demand, residual);
        if (infeasibility_callback_) {
          infeasibility_callback_(now, demand - residual);
        }
      }
    }
  } else if (action == AdaptAction::kUpgrade) {
    infeasible_since_.reset();
    if (odyssey::AdaptiveApplication* app = PickTarget(/*degrade=*/false)) {
      int level = app->current_fidelity() + 1;
      viceroy_->IssueUpcall(app, level);
      fidelity_log_[app].push_back(FidelityChange{now, level});
      hysteresis_.NoteUpgrade(now);
    }
  } else {
    infeasible_since_.reset();
  }
}

void GoalDirector::Complete(GoalOutcome outcome) {
  outcome_ = outcome;
  OD_LOG_INFO("goal director: %s at t=%.1fs, residual=%.1f J",
              outcome == GoalOutcome::kGoalMet ? "goal met" : "supply exhausted",
              viceroy_->sim()->Now().seconds(),
              supply_->ResidualJoules(viceroy_->sim()->Now()));
  Stop();
  if (stop_sim_on_completion_) {
    viceroy_->sim()->Stop();
  }
}

}  // namespace odenergy
