// Self-constructive power model (Sesame-style).
//
// A recursive-least-squares regressor that fits measured system power
// against per-component utilization features, online, with exponential
// forgetting.  Fed the gauge stream and the UtilizationProbe's occupancy
// vectors it converges on per-component power coefficients without ever
// reading the calibration table — which is what lets it serve two roles:
//
//   * an *independent* second energy estimator the goal director can
//     cross-check against the gauge-integrated accounting (a gauge whose
//     scale drifts away from the calibration the model learned shows up as
//     sustained prediction divergence, even when every individual reading
//     stays physically plausible);
//   * the *only* estimator on hardware with no calibration table at all,
//     after a short probe phase bootstraps the fit.
//
// Numerical hygiene, since this runs unattended inside a controller:
//
//   * covariance guarding: the P matrix's diagonal spread is a cheap
//     condition-number proxy; when it exceeds a bound (weakly
//     excited features under forgetting blow their variance up) the
//     diagonal is re-regularized toward the prior, and a counter records
//     that the guard fired;
//   * coefficient clamping: fitted watts are clamped to physical bounds
//     [-5 W, 25 W] after every update —
//     no component of this machine draws 50 W, so a fit that says so is
//     noise, not signal;
//   * degenerate-update rejection: an observation whose gain denominator
//     underflows is skipped rather than divided by.
//
// The confidence signal combines sample count with a normalized one-step
// prediction-error EWMA; converged() is the binary form the drift sentinel
// gates on.

#ifndef SRC_POWER_LEARNED_MODEL_H_
#define SRC_POWER_LEARNED_MODEL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace odpower {

struct LearnedModelConfig {
  // converged() requires the normalized prediction error at or below this.
  double converged_error_fraction = 0.08;
};

class LearnedModel {
 public:
  // Per-observation exponential forgetting factor.  0.999 at 10 Hz gives a
  // memory on the order of 100 s: slow enough that a mid-run gauge drift
  // diverges from the model long before the model chases it.
  static constexpr double kForgetting = 0.999;

  LearnedModel(int dim, const LearnedModelConfig& config = LearnedModelConfig{});

  int dim() const { return dim_; }

  // One RLS update: fit `measured_watts` against feature vector `phi`
  // (length dim()).  Call with the *observed* gauge reading — corrupted or
  // not; the model must mirror what the gauge says, never the analytic
  // accounting (that independence is what the drift cross-check rests on).
  void Observe(std::span<const double> phi, double measured_watts);

  // Current fit evaluated at `phi`, clamped to be non-negative (a power
  // model never predicts the machine generates energy).
  double PredictWatts(std::span<const double> phi) const;

  double coefficient(int index) const {
    return theta_[static_cast<size_t>(index)];
  }

  int samples() const { return samples_; }
  // [0, 1]: sample-count ramp times prediction-error quality.
  double confidence() const;
  // Enough samples and a small normalized prediction error.
  bool converged() const;
  // EWMA of |measured - predicted| / EWMA of |measured|.
  double prediction_error_fraction() const;
  // max(diag P) / min(diag P) — the guard's condition proxy.
  double condition_proxy() const;
  // Times the covariance guard re-regularized the diagonal.
  int guarded_updates() const { return guarded_updates_; }
  // Observations skipped for a degenerate gain denominator.
  int skipped_updates() const { return skipped_updates_; }

 private:
  double& P(int row, int col) {
    return p_[static_cast<size_t>(row * dim_ + col)];
  }
  double Pc(int row, int col) const {
    return p_[static_cast<size_t>(row * dim_ + col)];
  }
  // The symmetrised covariance step of Observe(), from gain_ and pphi_.
  void UpdateCovariance();

  int dim_;
  LearnedModelConfig config_;
  std::vector<double> theta_;  // Fitted coefficients, watts.
  // Covariance, row-major dim x dim.  Exactly symmetric between updates:
  // Observe() computes the upper triangle and mirrors it.
  std::vector<double> p_;
  std::vector<double> gain_;   // Scratch: k = P phi / denom.
  std::vector<double> pphi_;   // Scratch: P phi.
  std::vector<int> active_;    // Scratch: indices j with phi_j != 0.
  int samples_ = 0;
  int guarded_updates_ = 0;
  int skipped_updates_ = 0;
  double error_ewma_ = 0.0;
  double level_ewma_ = 0.0;
  bool ewma_primed_ = false;
};

}  // namespace odpower

#endif  // SRC_POWER_LEARNED_MODEL_H_
