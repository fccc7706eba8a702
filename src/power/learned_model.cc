#include "src/power/learned_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace odpower {
namespace {

// Prior coefficient variance: P starts as kInitialVariance * I.
constexpr double kInitialVariance = 100.0;
// Physical bounds on fitted coefficients, in watts.  Increments over a
// baseline state may be legitimately negative (a cheaper state than the
// resting one), hence the small negative floor.
constexpr double kMinCoefficientWatts = -5.0;
constexpr double kMaxCoefficientWatts = 25.0;
// Diagonal-spread guard: when max(diag P)/min(diag P) exceeds this, the
// diagonal is re-regularized.
constexpr double kMaxCondition = 1e7;
// Gain denominators below this are degenerate; the update is skipped.
constexpr double kMinDenominator = 1e-9;
// Samples before the confidence signal can saturate.
constexpr int kConvergenceSamples = 120;
// Half-life, in samples, of the prediction-error EWMA.
constexpr double kErrorHalfLifeSamples = 60.0;

}  // namespace

LearnedModel::LearnedModel(int dim, const LearnedModelConfig& config)
    : dim_(dim), config_(config) {
  OD_CHECK(dim > 0);
  theta_.assign(static_cast<size_t>(dim), 0.0);
  p_.assign(static_cast<size_t>(dim) * static_cast<size_t>(dim), 0.0);
  gain_.assign(static_cast<size_t>(dim), 0.0);
  pphi_.assign(static_cast<size_t>(dim), 0.0);
  for (int i = 0; i < dim; ++i) {
    P(i, i) = kInitialVariance;
  }
}

double LearnedModel::PredictWatts(const std::vector<double>& phi) const {
  OD_CHECK(static_cast<int>(phi.size()) == dim_);
  double watts = 0.0;
  for (int i = 0; i < dim_; ++i) {
    watts += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
  }
  return std::max(0.0, watts);
}

void LearnedModel::Observe(const std::vector<double>& phi,
                           double measured_watts) {
  OD_CHECK(static_cast<int>(phi.size()) == dim_);
  if (!std::isfinite(measured_watts)) {
    ++skipped_updates_;
    return;
  }
  for (double f : phi) {
    if (!std::isfinite(f)) {
      ++skipped_updates_;
      return;
    }
  }

  // One-step (prequential) prediction error, before this observation is
  // folded in: this is the honest out-of-sample error the confidence
  // signal — and, upstream, the drift sentinel — should see.
  double predicted = 0.0;
  for (int i = 0; i < dim_; ++i) {
    predicted += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
  }
  double alpha = 1.0 - std::pow(0.5, 1.0 / kErrorHalfLifeSamples);
  double abs_error = std::abs(measured_watts - predicted);
  if (!ewma_primed_) {
    error_ewma_ = abs_error;
    level_ewma_ = std::abs(measured_watts);
    ewma_primed_ = true;
  } else {
    error_ewma_ += alpha * (abs_error - error_ewma_);
    level_ewma_ += alpha * (std::abs(measured_watts) - level_ewma_);
  }

  // RLS:  k = P phi / (lambda + phi' P phi)
  //       theta += k (y - phi' theta)
  //       P = (P - k phi' P) / lambda
  double denom = kForgetting;
  for (int i = 0; i < dim_; ++i) {
    double acc = 0.0;
    for (int j = 0; j < dim_; ++j) {
      acc += Pc(i, j) * phi[static_cast<size_t>(j)];
    }
    pphi_[static_cast<size_t>(i)] = acc;
    denom += acc * phi[static_cast<size_t>(i)];
  }
  if (denom < kMinDenominator) {
    ++skipped_updates_;
    return;
  }
  for (int i = 0; i < dim_; ++i) {
    gain_[static_cast<size_t>(i)] = pphi_[static_cast<size_t>(i)] / denom;
  }
  double innovation = measured_watts - predicted;
  for (int i = 0; i < dim_; ++i) {
    theta_[static_cast<size_t>(i)] =
        std::clamp(theta_[static_cast<size_t>(i)] +
                       gain_[static_cast<size_t>(i)] * innovation,
                   kMinCoefficientWatts, kMaxCoefficientWatts);
  }
  // P update via the symmetric form (P - k (P phi)') / lambda, then an
  // explicit symmetrization: drift of P away from symmetry is the classic
  // RLS failure mode under forgetting.
  for (int i = 0; i < dim_; ++i) {
    for (int j = 0; j < dim_; ++j) {
      P(i, j) = (Pc(i, j) - gain_[static_cast<size_t>(i)] *
                                pphi_[static_cast<size_t>(j)]) /
                kForgetting;
    }
  }
  for (int i = 0; i < dim_; ++i) {
    for (int j = i + 1; j < dim_; ++j) {
      double mean = 0.5 * (Pc(i, j) + Pc(j, i));
      P(i, j) = mean;
      P(j, i) = mean;
    }
  }

  // Covariance guard.  Forgetting inflates the variance of features that
  // stop being excited (1/lambda per step, unbounded); cap the diagonal at
  // the prior, and if the spread between the best- and worst-determined
  // directions still exceeds kMaxCondition, lift the floor too.  Either
  // intervention counts as a guarded update.
  bool guarded = false;
  double max_diag = 0.0;
  for (int i = 0; i < dim_; ++i) {
    if (Pc(i, i) > kInitialVariance) {
      P(i, i) = kInitialVariance;
      guarded = true;
    }
    max_diag = std::max(max_diag, Pc(i, i));
  }
  double floor = max_diag / kMaxCondition;
  for (int i = 0; i < dim_; ++i) {
    if (Pc(i, i) < floor) {
      P(i, i) = floor;
      guarded = true;
    }
  }
  if (guarded) {
    ++guarded_updates_;
  }
  ++samples_;
}

double LearnedModel::prediction_error_fraction() const {
  if (!ewma_primed_ || level_ewma_ <= 0.0) {
    return 1.0;
  }
  return error_ewma_ / level_ewma_;
}

double LearnedModel::confidence() const {
  double ramp = std::min(
      1.0, static_cast<double>(samples_) /
               static_cast<double>(kConvergenceSamples));
  double quality = std::clamp(1.0 - prediction_error_fraction(), 0.0, 1.0);
  return ramp * quality;
}

bool LearnedModel::converged() const {
  return samples_ >= kConvergenceSamples &&
         prediction_error_fraction() <= config_.converged_error_fraction;
}

double LearnedModel::condition_proxy() const {
  double max_diag = 0.0;
  double min_diag = p_.empty() ? 0.0 : Pc(0, 0);
  for (int i = 0; i < dim_; ++i) {
    max_diag = std::max(max_diag, Pc(i, i));
    min_diag = std::min(min_diag, Pc(i, i));
  }
  return min_diag > 0.0 ? max_diag / min_diag
                        : std::numeric_limits<double>::infinity();
}

}  // namespace odpower
