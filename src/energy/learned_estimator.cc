#include "src/energy/learned_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/util/logging.h"

namespace odenergy {

LearnedEstimator::LearnedEstimator(odpower::Machine* machine,
                                   odsim::SimTime now,
                                   const odpower::LearnedModelConfig& config)
    : probe_(machine, now),
      model_(probe_.dim(), config),
      window_phi_(static_cast<size_t>(probe_.dim())),
      snapshot_phi_(static_cast<size_t>(probe_.dim())) {}

double LearnedEstimator::OnSample(odsim::SimTime now, double gauge_watts,
                                  bool train) {
  // Energy prediction uses the window's occupancy fractions: the model is
  // linear, so coefficients apply to time-averages of the state
  // indicators just as they do to the indicators themselves.
  double window_seconds = probe_.DrainWindow(now, window_phi_);
  double predicted = model_.PredictWatts(window_phi_);
  last_predicted_watts_ = predicted;
  if (window_seconds > 0.0) {
    learned_joules_ += predicted * window_seconds;
  }
  probe_.SnapshotFeatures(snapshot_phi_);
  uint64_t combination = 0;
  for (size_t i = 1; i < snapshot_phi_.size() && i < 64; ++i) {
    if (snapshot_phi_[i] > 0.5) {
      combination |= uint64_t{1} << i;
    }
  }
  CombinationRecord& record = combination_seconds_[combination];
  // Decay on twice the RLS memory (samples-to-seconds via this window),
  // measured on the model's *training* clock: combos refreshed at even a
  // modest duty cycle stay judged, combos the forgetting has flushed drop
  // back below the confidence bar — but a model whose training is frozen
  // (drift verdict, safe mode, suspicion) forgets nothing, so excitation
  // must not rot while the clock is stopped.
  if (window_seconds > 0.0 && record.seconds > 0.0) {
    double tau = 2.0 * window_seconds /
                 std::max(1e-6, 1.0 - odpower::LearnedModel::kForgetting);
    record.seconds *=
        std::exp(-(trained_seconds_total_ - record.trained_at) / tau);
  }
  record.trained_at = trained_seconds_total_;
  if (train && std::isfinite(gauge_watts)) {
    // The gauge reading is a snapshot of machine power at the sampling
    // instant, so training pairs it with the snapshot state indicators —
    // regressing an instantaneous target on window averages attenuates
    // every coefficient for a component that switches within the window.
    model_.Observe(snapshot_phi_, gauge_watts);
    record.seconds += window_seconds;
    trained_seconds_total_ += window_seconds;
    record.trained_at = trained_seconds_total_;
  }
  last_state_excitation_seconds_ = record.seconds;
  if (!convergence_marked_ && model_.converged()) {
    convergence_marked_ = true;
  }
  return predicted;
}

double LearnedEstimator::CoefficientRecoveryError(
    double min_excitation_seconds, double min_true_watts) const {
  double weighted_error = 0.0;
  double weight = 0.0;
  for (int i = 0; i < probe_.dim(); ++i) {
    double true_watts = probe_.TrueIncrementWatts(i);
    double excitation_seconds = probe_.FeatureSeconds(i);
    double magnitude = std::abs(true_watts);
    if (excitation_seconds < min_excitation_seconds ||
        magnitude < min_true_watts) {
      continue;
    }
    double w = excitation_seconds * magnitude;
    weighted_error +=
        w * std::abs(model_.coefficient(i) - true_watts) / magnitude;
    weight += w;
  }
  return weight > 0.0 ? weighted_error / weight : 1.0;
}

bool DriftSentinel::AllowsTraining(odsim::SimTime now, bool model_confident) {
  // Training freezes while the gauge is under a drift verdict: a model
  // that chases a bad gauge would erase the divergence that exposes it.
  // It also pauses as soon as the comparison window turns merely
  // *suspicious* (half the band) — the verdict needs a window's worth of
  // evidence, and a model that kept absorbing readings during that
  // interval would have chased part of the drift before the freeze
  // landed.  The pre-verdict freeze carries a budget, though: a real drift
  // convicts well inside it, so suspicion that outlives the budget is the
  // model lagging a workload shift, and training must resume before frozen
  // prediction error ratchets into a false verdict.
  //
  // Suspicion additionally requires the proven-accuracy latch: until the
  // sentinel has witnessed one judgeable in-band window, high divergence
  // means the fit is still settling, and freezing it would pin that honest
  // error in place long enough to convict it.  Like the verdict itself,
  // suspicion is excess-side only — a deficit cannot convict (see Judge),
  // so freezing on one would only delay the model learning a
  // post-adaptation mix.
  if (WindowJudgeable() && !Diverged()) {
    proven_ = true;
  }
  bool suspicious = model_confident && proven_ && WindowExcessJoules() > 0.0 &&
                    WindowDivergence() > 0.5 * kDivergenceBand;
  if (suspicious) {
    if (!suspect_since_.has_value()) {
      suspect_since_ = now;
    }
  } else {
    suspect_since_.reset();
  }
  return !drifting_ &&
         !(suspicious &&
           (now - *suspect_since_).seconds() <= kFreezeBudgetSeconds);
}

double DriftSentinel::Judge(odsim::SimTime now, double dt_seconds,
                            double gauge_watts, double learned_watts,
                            bool model_confident) {
  if (drifting_) {
    // Per-sample discount: the learned model is the believed rate; the
    // gauge's excess is charged back to the residual as it accrues.
    correction_joules_ += (gauge_watts - learned_watts) * dt_seconds;
    // Recovery hysteresis: a streak of in-band samples (gauge agreeing
    // with the model again) lifts the verdict.
    double rel = std::abs(gauge_watts - learned_watts) /
                 std::max(learned_watts, 1e-6);
    if (rel <= kDivergenceBand) {
      if (++recovery_streak_ >= kRecoverySamples) {
        ExitDrift(now, "gauge back in band");
      }
    } else {
      recovery_streak_ = 0;
    }
    return learned_watts;
  }
  AddInterval(dt_seconds, gauge_watts * dt_seconds,
              learned_watts * dt_seconds, model_confident);
  // Entry hysteresis: the hold's worth of out-of-band time must
  // *accumulate* — longer than the window itself — before the verdict
  // lands.  A workload-transition error lump slides out of the window
  // before the hold fills and the in-band window behind it zeroes the
  // count; only a divergence that keeps renewing (a real scale error)
  // convicts.  An unjudgeable window — safe-mode resets, convergence gaps
  // — is evidence of nothing and leaves the count standing, so a gauge
  // bad enough to bounce the controller through safe mode still convicts
  // across the gaps.
  // Only *excess*-side divergence (gauge above model) accumulates toward a
  // verdict.  The occupancy features carry no fidelity term, so any
  // fidelity drop — an adaptation decision or the safe clamp — cuts real
  // power while the model keeps predicting full-fidelity watts: the gauge
  // reads below the model and the deficit indicts the feature blind spot,
  // not the gauge.  An under-reading gauge is therefore indistinguishable
  // from normal adaptation at this layer and the policy does not convict
  // on it (the window arithmetic itself stays symmetric); every scale
  // error that inflates the drain estimate — the direction that burns the
  // goal — shows up on the excess side.
  bool accumulable = WindowExcessJoules() > 0.0;
  if (Diverged() && accumulable) {
    diverged_accum_seconds_ += dt_seconds;
    inband_accum_seconds_ = 0.0;
    if (diverged_accum_seconds_ >= kEntryHoldSeconds) {
      EnterDrift(now);
      return learned_watts;
    }
  } else if (WindowJudgeable()) {
    diverged_accum_seconds_ = 0.0;
    inband_accum_seconds_ = 0.0;
  } else if (diverged_accum_seconds_ > 0.0) {
    // Freshness horizon: unjudgeable windows leave the count standing
    // only so long as the divergence keeps renewing within a window's
    // span of *sampled* time.  Warm-up wobble — blips separated by long
    // unjudgeable stretches — ages out; safe-mode gaps contribute no
    // samples on this path, so a churn-bounced drift is unaffected.
    inband_accum_seconds_ += dt_seconds;
    if (inband_accum_seconds_ >= kWindowSeconds) {
      diverged_accum_seconds_ = 0.0;
      inband_accum_seconds_ = 0.0;
    }
  }
  return gauge_watts;
}

void DriftSentinel::EnterDrift(odsim::SimTime now) {
  // Retroactive correction: the divergence accumulated before the verdict
  // landed.  The window covers its own span; the entry hold accumulated
  // out-of-band time beyond it, so the overhang is charged at the
  // window's excess rate.  The accumulator is capped at the hold by
  // construction (the verdict fires the sample it crosses), so churny
  // paths cannot inflate the charge-back.
  double excess = WindowExcessJoules();
  double overhang = diverged_accum_seconds_ - kWindowSeconds;
  if (overhang > 0.0) {
    excess += overhang * excess / kWindowSeconds;
  }
  drifting_ = true;
  ++entries_;
  entered_ = now;
  recovery_streak_ = 0;
  diverged_accum_seconds_ = 0.0;
  inband_accum_seconds_ = 0.0;
  suspect_since_.reset();
  if (!first_detected_.has_value()) {
    first_detected_ = now;
  }
  correction_joules_ += excess;
  OD_LOG_WARN(
      "goal director: gauge drift at t=%.1fs — window gauge %.1f J vs "
      "learned %.1f J (%.0f%% divergence); discounting gauge",
      now.seconds(), total_.gauge_joules, total_.learned_joules,
      100.0 * WindowDivergence());
  ResetWindow();
}

void DriftSentinel::ExitDrift(odsim::SimTime now, const char* reason) {
  if (!drifting_) {
    return;
  }
  drifting_ = false;
  drift_seconds_ += (now - entered_).seconds();
  recovery_streak_ = 0;
  diverged_accum_seconds_ = 0.0;
  inband_accum_seconds_ = 0.0;
  suspect_since_.reset();
  ResetWindow();
  OD_LOG_INFO("goal director: gauge drift lifted at t=%.1fs (%s)",
              now.seconds(), reason);
}

double DriftSentinel::Seconds(odsim::SimTime now) const {
  double total = drift_seconds_;
  if (drifting_) {
    total += (now - entered_).seconds();
  }
  return total;
}

void DriftSentinel::Totals::Add(const Totals& span, double sign) {
  seconds += sign * span.seconds;
  gauge_joules += sign * span.gauge_joules;
  learned_joules += sign * span.learned_joules;
}

void DriftSentinel::AddInterval(double dt_seconds, double gauge_joules,
                                double learned_joules, bool model_confident) {
  if (dt_seconds <= 0.0) {
    return;
  }
  Interval added{{dt_seconds, gauge_joules, learned_joules}, model_confident};
  window_.push_back(added);
  total_.Add(added.span, 1.0);
  if (added.confident) {
    confident_.Add(added.span, 1.0);
  }
  while (!window_.empty() &&
         total_.seconds - window_.front().span.seconds >= kWindowSeconds) {
    const Interval& old = window_.front();
    total_.Add(old.span, -1.0);
    if (old.confident) {
      confident_.Add(old.span, -1.0);
    }
    window_.pop_front();
  }
}

double DriftSentinel::WindowExcessJoules() const {
  return total_.gauge_joules - total_.learned_joules;
}

double DriftSentinel::WindowDivergence() const {
  // Confident intervals only: extrapolation error on barely-trained state
  // mixes indicts the model, not the gauge, so it is excluded from the
  // evidence rather than folded into it.
  double reference = std::max(confident_.learned_joules, 1e-9);
  return std::abs(confident_.gauge_joules - confident_.learned_joules) /
         reference;
}

bool DriftSentinel::WindowJudgeable() const {
  // The window spans its configured length, a quorum of it is confident,
  // and the confident intervals integrate enough energy to compare (an
  // unconverged model diverges from everything — its intervals are not
  // evidence).
  return total_.seconds >= kWindowSeconds &&
         confident_.seconds >= kMinConfidentFraction * total_.seconds &&
         confident_.learned_joules >= kMinWindowJoules && !window_.empty();
}

bool DriftSentinel::Diverged() const {
  return WindowJudgeable() && WindowDivergence() > kDivergenceBand;
}

void DriftSentinel::ResetWindow() {
  window_.clear();
  total_ = Totals{};
  confident_ = Totals{};
}

}  // namespace odenergy
