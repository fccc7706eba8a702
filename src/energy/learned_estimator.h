// Learned-model energy estimation and the gauge-drift sentinel.
//
// LearnedEstimator glues the Sesame-style pieces together for the goal
// director: a UtilizationProbe supplies per-component activity features, an
// odpower::LearnedModel fits them against the *delivered* gauge stream
// (after TelemetryFaults corruption — the estimator must mirror what the
// controller can actually observe, never the analytic accounting), and the
// predicted power is integrated into an independent energy estimate.
//
// DriftSentinel is the cross-check.  TelemetryGuard's validation rejects
// readings that are non-finite, negative, or implausibly large; a gauge
// whose scale drifts by 1.2x stays under every one of those bars and
// silently biases the residual estimate.  The sentinel compares the energy
// the gauge integrated over a sliding window against the energy the learned
// model predicts for the same window; sustained relative divergence beyond
// a fixed band — while the model is confident — is a drift verdict.
// Recovery is hysteretic: a streak of consecutive in-band samples must
// accumulate before the verdict lifts, mirroring the safe-mode recovery
// streak.

#ifndef SRC_ENERGY_LEARNED_ESTIMATOR_H_
#define SRC_ENERGY_LEARNED_ESTIMATOR_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/power/learned_model.h"
#include "src/power/utilization.h"
#include "src/sim/time.h"

namespace odenergy {

class LearnedEstimator {
 public:
  // Attaches a UtilizationProbe to `machine` at `now` (construct once the
  // hardware has settled; the probe's baselines are the resting states).
  LearnedEstimator(odpower::Machine* machine, odsim::SimTime now,
                   const odpower::LearnedModelConfig& config =
                       odpower::LearnedModelConfig{});

  LearnedEstimator(const LearnedEstimator&) = delete;
  LearnedEstimator& operator=(const LearnedEstimator&) = delete;

  // Consumes one delivered gauge sample.  Drains the utilization window
  // ending at `now`, predicts its power from the current fit (before
  // training — the prequential order the drift comparison needs),
  // integrates the prediction into learned_joules(), and, when `train`,
  // folds the observation into the model.  Returns the predicted watts for
  // the drained window.  The caller passes train=false while the gauge is
  // under a drift verdict or the controller is in safe mode: a model that
  // chases a drifting gauge would erase the very divergence that exposes
  // it.
  double OnSample(odsim::SimTime now, double gauge_watts, bool train);

  // Energy integrated from model predictions since construction.  Early
  // windows (before the fit converges) are integrated too.
  double learned_joules() const { return learned_joules_; }
  // Latched: the model converged at some point.  This — not the live
  // converged() bit — is what drift detection gates on: a drifting gauge
  // inflates the model's prediction error and revokes live convergence,
  // which is the symptom, not a reason to stand down.
  bool converged_once() const { return convergence_marked_; }
  double last_predicted_watts() const { return last_predicted_watts_; }
  // Recency-weighted *trained* seconds of the state combination the
  // machine held at the last OnSample().  Tracked per combination, not per
  // feature: a collinear fit predicts accurately on the mixes it has
  // trained on and can extrapolate wildly on a novel mix of individually
  // well-excited states.  Decayed on the model's own forgetting timescale:
  // a combination the RLS has not been refreshed on lately is one it has
  // forgotten, however long it trained on it once.
  double last_state_excitation_seconds() const {
    return last_state_excitation_seconds_;
  }

  const odpower::LearnedModel& model() const { return model_; }

  // -- Evaluation -------------------------------------------------------------

  // Excitation-weighted mean relative error of the fitted coefficients
  // against the calibration table, over features excited at least
  // `min_excitation_seconds` and whose true magnitude is at least
  // `min_true_watts` (weakly excited or near-zero coefficients are not
  // meaningfully recoverable).  Returns 1.0 when no feature qualifies.
  // The truth comes from UtilizationProbe's evaluation-only table access;
  // the estimation path never reads it.
  double CoefficientRecoveryError(double min_excitation_seconds,
                                  double min_true_watts) const;

 private:
  odpower::UtilizationProbe probe_;
  odpower::LearnedModel model_;
  // Feature buffers the probe fills each sample, so a sample allocates
  // nothing: the drained window's occupancies and the snapshot indicators.
  std::vector<double> window_phi_;
  std::vector<double> snapshot_phi_;
  double learned_joules_ = 0.0;
  bool convergence_marked_ = false;
  double last_predicted_watts_ = 0.0;
  // Recency-decayed trained seconds per active-state combination (bitmask
  // over features).  `trained_at` is the value of trained_seconds_total_
  // when the record was last refreshed: decay advances on the model's own
  // training clock, not wall time, because RLS forgetting only moves when
  // Observe() runs — a frozen model forgets nothing, so its excitation
  // must not rot while training is suspended.
  struct CombinationRecord {
    double seconds = 0.0;
    double trained_at = 0.0;
  };
  std::unordered_map<uint64_t, CombinationRecord> combination_seconds_;
  double trained_seconds_total_ = 0.0;
  double last_state_excitation_seconds_ = 0.0;
};

// The sentinel's tuning is DriftSentinel's constants; only arming it is a
// choice a deployment makes.
struct DriftSentinelConfig {
  bool enabled = false;
};

// The drift policy, whole: the sliding gauge-vs-learned window and the
// verdict state around it (entry hold, freshness horizon, proven latch,
// freeze budget, recovery streak, charge-back).  The director calls it
// twice per valid sample, in this order: AllowsTraining() before
// LearnedEstimator::OnSample, Judge() after it.  Constructed only when the
// sentinel is enabled, so a bare director carries none of it.
class DriftSentinel {
 public:
  // Sliding comparison window.  Long enough to average over workload
  // transitions, short enough that detection latency stays useful.
  static constexpr double kWindowSeconds = 20.0;
  // Relative divergence |gauge - learned| / learned tolerated before a
  // drift verdict.  The converged model tracks a healthy gauge to a few
  // percent; a 1.2x scale error diverges by ~20%.
  static constexpr double kDivergenceBand = 0.10;
  // Windows whose confident intervals integrate less than this are too
  // small to judge: a relative divergence over a few joules is noise.
  static constexpr double kMinWindowJoules = 5.0;
  // A verdict requires this much *accumulated* out-of-band time, cleared
  // whenever a judgeable window comes back in band.  Kept longer than
  // kWindowSeconds on purpose: the error lump a workload transition
  // injects (the model lags the new mix for a few samples) leaves the
  // sliding window after kWindowSeconds and the in-band window that
  // follows zeroes the count, so only a divergence that keeps renewing
  // itself — a real scale error — reaches the hold.  Accumulation (not a
  // continuous streak) matters under churn: a gauge bad enough to also
  // trip the plausibility bars bounces the controller through safe mode,
  // and every safe-mode reset would restart a continuous clock forever.
  static constexpr double kEntryHoldSeconds = 25.0;
  // The pre-verdict training freeze (armed at half the band) expires
  // after this much continuous suspicion.  A real drift convicts well
  // inside the budget; a workload mix the model simply has not learned
  // yet must eventually be learned — an unbounded freeze ratchets honest
  // prediction error into a false drift verdict.
  static constexpr double kFreezeBudgetSeconds = 60.0;
  // Intervals whose active-state combination the model has trained on for
  // less than this do not count as confident evidence: when the model has
  // barely seen a mix of states, its extrapolation — not the gauge — is
  // the suspect.  A gauge drift needs no state change at all to show up,
  // so gating on excitation costs detection nothing.
  static constexpr double kMinFeatureExcitationSeconds = 20.0;
  // A judgeable window needs at least this fraction of its span covered
  // by confident intervals.  The divergence verdict is computed over the
  // confident intervals *only* — an interval on a barely-trained state
  // mix indicts the model, not the gauge, so it is excluded from the
  // evidence instead of voiding the whole window: a real scale error
  // shows up identically on every mix, so the confident subset still
  // sees it, while extrapolation error lives exactly in the excluded
  // intervals.
  static constexpr double kMinConfidentFraction = 0.5;
  // Consecutive in-band samples before a drift verdict lifts: 5 s of
  // agreement at 10 Hz, so an in-band blip mid-drift does not clear it.
  static constexpr int kRecoverySamples = 50;

  // Confidence has two legs: the model converged at some point, and the
  // state combination the machine holds is one the model has actually
  // trained on (kMinFeatureExcitationSeconds).  A window leaning on an
  // extrapolated mix indicts the model, not the gauge — while a real
  // gauge drift needs no state change at all, so the excitation gate
  // costs detection nothing.
  static bool Confident(const LearnedEstimator& learned) {
    return learned.converged_once() &&
           learned.last_state_excitation_seconds() >=
               kMinFeatureExcitationSeconds;
  }

  // -- Policy -----------------------------------------------------------------

  // The training decision for the sample at `now`, taken before the model
  // sees it; `model_confident` is Confident() then (the previous
  // interval's excitation — a 100 ms skew on a continuous property).
  // False while drifting, and while a suspicion younger than the freeze
  // budget stands.  The caller also withholds training in safe mode.
  bool AllowsTraining(odsim::SimTime now, bool model_confident);
  // The verdict update for one valid sample interval of `dt_seconds`
  // ending at `now`, taken after the model predicted `learned_watts` for
  // it.  Enters or lifts a verdict and accrues the charge-back; returns
  // the demand rate to feed the predictor: the learned wattage under a
  // verdict, the gauge reading otherwise.
  double Judge(odsim::SimTime now, double dt_seconds, double gauge_watts,
               double learned_watts, bool model_confident);
  // Lifts a standing verdict (no-op when there is none).
  void ExitDrift(odsim::SimTime now, const char* reason);

  bool drifting() const { return drifting_; }
  // Distinct drift episodes declared.
  int entries() const { return entries_; }
  // Cumulative time under a drift verdict up to `now` (open episode
  // included).
  double Seconds(odsim::SimTime now) const;
  // Energy charged back to the residual estimate for gauge/learned
  // disagreement while drifting (positive when the gauge over-reads).
  double correction_joules() const { return correction_joules_; }
  // Time the first verdict landed, if one ever did.
  std::optional<odsim::SimTime> first_detected() const {
    return first_detected_;
  }
  // Out-of-band time accumulated toward the entry hold.
  double out_of_band_seconds() const { return diverged_accum_seconds_; }

  // -- Window arithmetic ------------------------------------------------------

  // Feeds one sample interval: `gauge_joules` as integrated from the
  // delivered reading, `learned_joules` as predicted by the model, over
  // `dt_seconds`.  `model_confident` gates verdicts — an unconverged model
  // diverges from everything.
  void AddInterval(double dt_seconds, double gauge_joules,
                   double learned_joules, bool model_confident);

  // Current window divergence verdict: true when the window is judgeable
  // and out of band.
  bool Diverged() const;
  // The window spans its configured length, a quorum of it is covered by
  // confident intervals, and those intervals integrate enough energy to
  // compare.  A judgeable in-band window is positive evidence of gauge
  // health; an unjudgeable one says nothing either way.
  bool WindowJudgeable() const;
  // Signed gauge-minus-learned energy over the current window (all
  // intervals — the correction charge-back wants the whole span, since a
  // real drift biases the unconfident intervals too).
  double WindowExcessJoules() const;
  // Relative divergence over the confident intervals only.
  double WindowDivergence() const;

  // Drops the window (on drift entry and exit, so a stale window cannot
  // double-charge a correction or re-trigger instantly).
  void ResetWindow();

 private:
  void EnterDrift(odsim::SimTime now);

  // Energy and time summed over a set of intervals.
  struct Totals {
    double seconds = 0.0;
    double gauge_joules = 0.0;
    double learned_joules = 0.0;
    // Adds (sign +1) or removes (sign -1) one interval's share.
    void Add(const Totals& span, double sign);
  };
  struct Interval {
    Totals span;
    bool confident = false;
  };

  std::deque<Interval> window_;
  Totals total_;      // Every interval in the window.
  Totals confident_;  // The confident intervals only.

  bool drifting_ = false;
  // When the comparison window first turned suspicious (past half the
  // band, continuously).  Unset whenever the window is back under the
  // threshold.
  std::optional<odsim::SimTime> suspect_since_;
  // Latched once the sentinel has seen a judgeable *in-band* window: the
  // model has demonstrated it can match a healthy gauge.  Until then,
  // suspicion must not freeze training — freezing a still-converging fit
  // pins its honest error in place and ratchets it into a false verdict.
  bool proven_ = false;
  // Accumulated seconds the window has spent out of band (past the full
  // band) since the last judgeable in-band window.  Survives safe-mode
  // churn on purpose: an implausible gauge corroborates drift, and the
  // window resets it forces would otherwise restart a continuous entry
  // clock forever.
  double diverged_accum_seconds_ = 0.0;
  // Sampled (non-safe-mode) seconds since the last out-of-band window;
  // ages the accumulator out when divergence stops renewing.
  double inband_accum_seconds_ = 0.0;
  int entries_ = 0;
  int recovery_streak_ = 0;
  double drift_seconds_ = 0.0;
  odsim::SimTime entered_ = odsim::SimTime::Zero();
  double correction_joules_ = 0.0;
  std::optional<odsim::SimTime> first_detected_;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_LEARNED_ESTIMATOR_H_
