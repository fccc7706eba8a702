#include "src/energy/goal_director.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/logging.h"

namespace odenergy {

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
      safe_clamp_(viceroy) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(supply != nullptr);
  OD_CHECK(monitor != nullptr);
}

void GoalDirector::Start(bool stop_sim_on_completion) {
  OD_CHECK(!running_);
  running_ = true;
  stop_sim_on_completion_ = stop_sim_on_completion;
  outcome_ = GoalOutcome::kRunning;
  start_time_ = viceroy_->sim()->Now();

  monitor_->set_callback([this](odsim::SimTime now, double watts) {
    OnPowerSample(now, watts);
  });
  monitor_->Start();
  ArmEvaluation();
}

void GoalDirector::ArmEvaluation() {
  next_eval_ = viceroy_->sim()->ScheduleFixedDelay(config_.evaluation_period,
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
    sentinel_.emplace(config_.drift_sentinel);
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
                             telemetry_debit_joules_);
  }
  // The drift correction backs out the energy the sentinel attributed to
  // gauge scale error: positive when the gauge over-read, so it is *added*
  // back to the residual.
  return std::max(0.0, supply_->initial_joules() - monitor_->measured_joules() -
                           telemetry_debit_joules_ + drift_correction_joules_);
}

double GoalDirector::DriftSeconds(odsim::SimTime now) const {
  double total = drift_seconds_;
  if (drifting_) {
    total += (now - drift_entered_).seconds();
  }
  return total;
}

double GoalDirector::SafeModeSeconds(odsim::SimTime now) const {
  double total = safe_mode_seconds_;
  if (health_ == ControllerHealth::kSafeMode) {
    total += (now - safe_mode_entered_).seconds();
  }
  return total;
}

const std::vector<FidelityChange>& GoalDirector::FidelityLog(
    const odyssey::AdaptiveApplication* app) const {
  static const std::vector<FidelityChange> kEmpty;
  auto it = fidelity_log_.find(app);
  return it == fidelity_log_.end() ? kEmpty : it->second;
}

void GoalDirector::LogFidelityChange(odyssey::AdaptiveApplication* app,
                                     int level, odsim::SimTime now) {
  fidelity_log_[app].push_back(FidelityChange{now, level});
}

void GoalDirector::EnterDrift(odsim::SimTime now) {
  // Retroactive correction: the divergence accumulated before the verdict
  // landed.  The window covers its own span; the entry hold accumulated
  // out-of-band time beyond it, so the overhang is charged at the
  // window's excess rate.  The accumulator is capped at the hold by
  // construction (the verdict fires the sample it crosses), so churny
  // paths cannot inflate the charge-back.
  double excess = sentinel_->WindowExcessJoules();
  if (config_.drift_sentinel.window_seconds > 0.0) {
    double overhang =
        diverged_accum_seconds_ - config_.drift_sentinel.window_seconds;
    if (overhang > 0.0) {
      excess += overhang * excess / config_.drift_sentinel.window_seconds;
    }
  }
  drifting_ = true;
  ++drift_entries_;
  drift_entered_ = now;
  drift_recovery_streak_ = 0;
  diverged_accum_seconds_ = 0.0;
  inband_accum_seconds_ = 0.0;
  suspect_since_.reset();
  if (!first_drift_detected_.has_value()) {
    first_drift_detected_ = now;
  }
  if (health_ != ControllerHealth::kSafeMode) {
    health_ = ControllerHealth::kGaugeDrift;
  }
  drift_correction_joules_ += config_.drift_sentinel.reweight * excess;
  OD_LOG_WARN(
      "goal director: gauge drift at t=%.1fs — window gauge %.1f J vs "
      "learned %.1f J (%.0f%% divergence); discounting gauge",
      now.seconds(), sentinel_->WindowGaugeJoules(),
      sentinel_->WindowLearnedJoules(), 100.0 * sentinel_->WindowDivergence());
  sentinel_->ResetWindow();
}

void GoalDirector::ExitDrift(odsim::SimTime now, const char* reason) {
  if (!drifting_) {
    return;
  }
  drifting_ = false;
  drift_seconds_ += (now - drift_entered_).seconds();
  drift_recovery_streak_ = 0;
  diverged_accum_seconds_ = 0.0;
  inband_accum_seconds_ = 0.0;
  suspect_since_.reset();
  if (health_ == ControllerHealth::kGaugeDrift) {
    health_ = ControllerHealth::kHealthy;
  }
  if (sentinel_.has_value()) {
    sentinel_->ResetWindow();
  }
  OD_LOG_INFO("goal director: gauge drift lifted at t=%.1fs (%s)",
              now.seconds(), reason);
}

void GoalDirector::EnterSafeMode(odsim::SimTime now, const char* reason) {
  // A drift verdict is subsumed: safe mode distrusts the whole feed, not
  // just its scale.
  ExitDrift(now, "superseded by safe mode");
  health_ = ControllerHealth::kSafeMode;
  ++safe_mode_entries_;
  safe_mode_entered_ = now;
  recovery_streak_ = 0;
  OD_LOG_WARN(
      "goal director: telemetry %s at t=%.1fs — safe mode: clamping to "
      "lowest fidelity, freezing goal re-planning",
      reason, now.seconds());
  safe_clamp_.Engage([this, now](odyssey::AdaptiveApplication* app,
                                 int level) {
    LogFidelityChange(app, level, now);
  });
}

void GoalDirector::ExitSafeMode(odsim::SimTime now) {
  // A drift verdict convicted from safe mode's valid samples outlives the
  // safe mode that corroborated it.
  health_ = drifting_ ? ControllerHealth::kGaugeDrift
                      : ControllerHealth::kHealthy;
  safe_mode_seconds_ += (now - safe_mode_entered_).seconds();
  consecutive_invalid_ = 0;
  identical_streak_ = 0;
  OD_LOG_INFO("goal director: telemetry recovered at t=%.1fs — safe mode off",
              now.seconds());
  safe_clamp_.Release([this, now](odyssey::AdaptiveApplication* app,
                                  int level) {
    LogFidelityChange(app, level, now);
  });
}

void GoalDirector::OnPowerSample(odsim::SimTime now, double watts) {
  double period = monitor_->period().seconds();
  bool valid = std::isfinite(watts) && watts >= 0.0 &&
               watts <= config_.max_plausible_watts;
  // Frozen-feed detection: a wedged driver repeats its last reading
  // bit-for-bit, which a noisy physical source never does.  Disabled when
  // stale_sample_limit is 0 (quantized gauges repeat legitimately).
  if (valid && config_.stale_sample_limit > 0) {
    if (has_valid_sample_ && watts == last_valid_watts_) {
      ++identical_streak_;
      if (identical_streak_ >= config_.stale_sample_limit) {
        valid = false;
      }
    } else {
      identical_streak_ = 0;
    }
  }

  if (!valid) {
    ++invalid_samples_;
    ++consecutive_invalid_;
    recovery_streak_ = 0;
    // A finite-but-rejected reading was integrated by the monitor at face
    // value; re-count that interval at the smoothed demand rate so one
    // drifting gauge cannot drag the residual estimate arbitrarily far.
    // The debit is subtracted from the estimate, so backing out an
    // over-reading means a negative contribution.
    if (std::isfinite(watts)) {
      telemetry_debit_joules_ +=
          (predictor_.smoothed_watts() - watts) * period;
      // The interval is now fully accounted (integrated by the monitor,
      // re-counted here), so the gap bridge must not cover it again.
      last_integrated_time_ = now;
    }
    if (health_ != ControllerHealth::kSafeMode) {
      if (!drifting_) {
        health_ = ControllerHealth::kSuspect;
      }
      if (consecutive_invalid_ >= config_.invalid_sample_limit) {
        EnterSafeMode(now, "invalid readings");
      }
    }
    return;  // Invalid readings never touch the predictor.
  }

  // Bridge any gap the monitor could not integrate over (dropped or NaN
  // samples) at the smoothed demand rate.  The last period before this
  // sample is covered by the monitor's own integration of it.  The gap is
  // measured from the last *integrated* sample — finite-but-rejected
  // readings were integrated (and re-counted above), so they do not leave
  // a hole.
  if (has_valid_sample_) {
    odsim::SimTime anchor = std::max(last_valid_sample_time_,
                                     last_integrated_time_);
    double gap = (now - anchor).seconds();
    if (gap > 1.5 * period) {
      telemetry_debit_joules_ +=
          predictor_.smoothed_watts() * std::max(0.0, gap - period);
      ++telemetry_gaps_;
    }
  }
  has_valid_sample_ = true;
  last_valid_sample_time_ = now;
  last_integrated_time_ = now;
  last_valid_watts_ = watts;
  consecutive_invalid_ = 0;

  // Learned-model cross-check.  The second estimator sees exactly the
  // reading the director sees — the delivered (possibly corrupted) gauge
  // value, never the analytic accounting.
  double demand_watts = watts;
  if (learned_ != nullptr) {
    // Training freezes while the gauge is under a drift verdict or the
    // controller is in safe mode: a model that chases a bad gauge would
    // erase the divergence that exposes it.  It also pauses as soon as the
    // comparison window turns merely *suspicious* (half the band) — the
    // verdict needs a window's worth of evidence, and a model that kept
    // absorbing readings during that interval would have chased part of
    // the drift before the freeze landed.  The pre-verdict freeze carries
    // a budget, though: a real drift convicts well inside it, so
    // suspicion that outlives the budget is the model lagging a workload
    // shift, and training must resume before frozen prediction error
    // ratchets into a false verdict.
    // Confidence has two legs: the model converged at some point, and the
    // state combination the machine holds is one the model has actually
    // trained on (min_feature_excitation_seconds).  A window leaning on an
    // extrapolated mix indicts the model, not the gauge — while a real
    // gauge drift needs no state change at all, so the excitation gate
    // costs detection nothing.  (The pre-OnSample read uses the previous
    // interval's excitation — a 100 ms skew on a continuous property.)
    auto excited = [this] {
      return learned_->last_state_excitation_seconds() >=
             config_.drift_sentinel.min_feature_excitation_seconds;
    };
    // Suspicion additionally requires the proven-accuracy latch: until
    // the sentinel has witnessed one judgeable in-band window, high
    // divergence means the fit is still settling, and freezing it would
    // pin that honest error in place long enough to convict it.  Like
    // the verdict itself, suspicion is excess-side only — a deficit
    // cannot convict (see the entry branch below), so freezing on one
    // would only delay the model learning a post-adaptation mix.
    if (sentinel_.has_value() && sentinel_->WindowJudgeable() &&
        !sentinel_->Diverged()) {
      sentinel_proven_ = true;
    }
    bool suspicious = learned_->converged_once() && excited() &&
                      sentinel_proven_ && sentinel_.has_value() &&
                      sentinel_->WindowExcessJoules() > 0.0 &&
                      sentinel_->WindowDivergence() >
                          0.5 * config_.drift_sentinel.divergence_band;
    if (suspicious) {
      if (!suspect_since_.has_value()) {
        suspect_since_ = now;
      }
    } else {
      suspect_since_.reset();
    }
    bool train = !drifting_ && health_ != ControllerHealth::kSafeMode;
    if (train && suspicious &&
        (now - *suspect_since_).seconds() <=
            config_.drift_sentinel.freeze_budget_seconds) {
      train = false;
    }
    double predicted = learned_->OnSample(now, watts, train);
    bool confident = learned_->converged_once() && excited();

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
    if (sentinel_.has_value() && !learned_handoff_done_) {
      if (drifting_) {
        // Per-sample discount: the learned model is the believed rate; the
        // gauge's excess is charged back to the residual as it accrues.
        drift_correction_joules_ +=
            config_.drift_sentinel.reweight * (watts - predicted) * period;
        demand_watts = predicted;
        // Recovery hysteresis: a streak of in-band samples (gauge agreeing
        // with the model again) lifts the verdict.
        double rel = std::abs(watts - predicted) / std::max(predicted, 1e-6);
        if (rel <= config_.drift_sentinel.divergence_band) {
          if (++drift_recovery_streak_ >=
              config_.drift_sentinel.recovery_samples) {
            ExitDrift(now, "gauge back in band");
          }
        } else {
          drift_recovery_streak_ = 0;
        }
      } else {
        sentinel_->AddInterval(now, period, watts * period, predicted * period,
                               confident);
        // Entry hysteresis: the hold's worth of out-of-band time must
        // *accumulate* — longer than the window itself — before the
        // verdict lands.  A workload-transition error lump slides out of
        // the window before the hold fills and the in-band window behind
        // it zeroes the count; only a divergence that keeps renewing (a
        // real scale error) convicts.  An unjudgeable window — safe-mode
        // resets, convergence gaps — is evidence of nothing and leaves
        // the count standing, so a gauge bad enough to bounce the
        // controller through safe mode still convicts across the gaps.
        // Only *excess*-side divergence (gauge above model) accumulates
        // toward a verdict.  The occupancy features carry no fidelity
        // term, so any fidelity drop — an adaptation decision or the safe
        // clamp — cuts real power while the model keeps predicting
        // full-fidelity watts: the gauge reads below the model and the
        // deficit indicts the feature blind spot, not the gauge.  An
        // under-reading gauge is therefore indistinguishable from normal
        // adaptation at this layer and the director does not convict on
        // it (the DriftSentinel primitive itself stays symmetric); every
        // scale error that inflates the drain estimate — the direction
        // that burns the goal — shows up on the excess side.
        bool accumulable = sentinel_->WindowExcessJoules() > 0.0;
        if (sentinel_->Diverged() && accumulable) {
          diverged_accum_seconds_ += period;
          inband_accum_seconds_ = 0.0;
          if (diverged_accum_seconds_ >=
              config_.drift_sentinel.entry_hold_seconds) {
            EnterDrift(now);
            demand_watts = predicted;
          }
        } else if (sentinel_->WindowJudgeable()) {
          diverged_accum_seconds_ = 0.0;
          inband_accum_seconds_ = 0.0;
        } else if (diverged_accum_seconds_ > 0.0) {
          // Freshness horizon: unjudgeable windows leave the count
          // standing only so long as the divergence keeps renewing within
          // a window's span of *sampled* time.  Warm-up wobble — blips
          // separated by long unjudgeable stretches — ages out; safe-mode
          // gaps contribute no samples on this path, so a churn-bounced
          // drift is unaffected.
          inband_accum_seconds_ += period;
          if (inband_accum_seconds_ >= config_.drift_sentinel.window_seconds) {
            diverged_accum_seconds_ = 0.0;
            inband_accum_seconds_ = 0.0;
          }
        }
      }
    }
  }

  double remaining = (goal_ - now).seconds();
  predictor_.AddSample(demand_watts, period, std::max(0.0, remaining));

  if (health_ == ControllerHealth::kSafeMode) {
    if (++recovery_streak_ >= config_.health_recovery_samples) {
      ExitSafeMode(now);
    }
  } else if (!drifting_) {
    health_ = identical_streak_ > 0 ? ControllerHealth::kSuspect
                                    : ControllerHealth::kHealthy;
  }
}

odyssey::AdaptiveApplication* GoalDirector::PickDegradeTarget() const {
  odyssey::AdaptiveApplication* best = nullptr;
  for (odyssey::AdaptiveApplication* app : viceroy_->applications()) {
    if (app->AtLowestFidelity()) {
      continue;
    }
    if (best == nullptr || app->priority() < best->priority()) {
      best = app;
    }
  }
  return best;
}

odyssey::AdaptiveApplication* GoalDirector::PickUpgradeTarget() const {
  odyssey::AdaptiveApplication* best = nullptr;
  for (odyssey::AdaptiveApplication* app : viceroy_->applications()) {
    if (app->AtHighestFidelity()) {
      continue;
    }
    if (best == nullptr || app->priority() > best->priority()) {
      best = app;
    }
  }
  return best;
}

void GoalDirector::Evaluate() {
  if (!running_) {
    return;
  }
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

  // Telemetry-gap watchdog: a silent feed produces no samples for
  // OnPowerSample to reject, so silence is detected here, against the
  // monitor's own sampling period.
  if (health_ != ControllerHealth::kSafeMode) {
    odsim::SimTime last_heard =
        has_valid_sample_ ? last_valid_sample_time_ : start_time_;
    double silence = (now - last_heard).seconds();
    if (silence >
        config_.telemetry_timeout_periods * monitor_->period().seconds()) {
      EnterSafeMode(now, "gap (no samples)");
    }
  }

  double residual =
      EstimatedResidualJoules() * (1.0 - config_.residual_safety_fraction);
  double remaining = (goal_ - now).seconds();
  double demand = predictor_.PredictedDemandJoules(remaining);

  if (config_.record_timeline) {
    timeline_.push_back(TimelinePoint{now, residual, demand, health_});
  }

  if (health_ == ControllerHealth::kSafeMode) {
    // Goal re-planning is frozen: fidelity is already clamped to the
    // cheapest levels, and adaptation decisions computed from corrupted
    // telemetry would be noise.  Completion checks above still run — they
    // use the true supply, not telemetry.
    infeasible_since_.reset();
    ArmEvaluation();
    return;
  }

  AdaptAction action =
      hysteresis_.Decide(demand, residual, supply_->initial_joules(), now);
  if (action == AdaptAction::kDegrade) {
    bool allowed = !has_degraded_ || now - last_degrade_ >= config_.degrade_interval;
    if (odyssey::AdaptiveApplication* app = allowed ? PickDegradeTarget() : nullptr) {
      int level = app->current_fidelity() - 1;
      viceroy_->IssueUpcall(app, level);
      fidelity_log_[app].push_back(FidelityChange{now, level});
      last_degrade_ = now;
      has_degraded_ = true;
      infeasible_since_.reset();
    } else if (PickDegradeTarget() == nullptr &&
               demand > residual * (1.0 + config_.infeasibility_deficit_fraction)) {
      // Demand materially exceeds supply with everything already at lowest
      // fidelity: the goal may be infeasible.  Alert once this has persisted
      // long enough for the smoothed estimate to reflect lowest-fidelity
      // operation (one half-life), rather than the pre-degradation transient.
      if (!infeasible_since_.has_value()) {
        infeasible_since_ = now;
      }
      double persistence = (now - *infeasible_since_).seconds();
      double required = std::max(config_.infeasibility_min_seconds,
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
    if (odyssey::AdaptiveApplication* app = PickUpgradeTarget()) {
      int level = app->current_fidelity() + 1;
      viceroy_->IssueUpcall(app, level);
      fidelity_log_[app].push_back(FidelityChange{now, level});
      hysteresis_.NoteUpgrade(now);
    }
  } else {
    infeasible_since_.reset();
  }

  ArmEvaluation();
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
