#include "src/power/learned_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// Two doubles in one SSE2 register.  GCC lowers the arithmetic on them
// lane by lane with IEEE rounding, so each lane gives the bits the scalar
// expression would (neither is fused: baseline x86-64 has no FMA).
typedef double Lanes __attribute__((vector_size(16)));

Lanes LoadLanes(const double* from) {
  Lanes lanes;
  std::memcpy(&lanes, from, sizeof lanes);
  return lanes;
}

void StoreLanes(double* to, Lanes lanes) {
  std::memcpy(to, &lanes, sizeof lanes);
}

}  // namespace

LearnedModel::LearnedModel(int dim, const LearnedModelConfig& config)
    : dim_(dim), config_(config) {
  OD_CHECK(dim > 0);
  theta_.assign(static_cast<size_t>(dim), 0.0);
  p_.assign(static_cast<size_t>(dim) * static_cast<size_t>(dim), 0.0);
  gain_.assign(static_cast<size_t>(dim), 0.0);
  pphi_.assign(static_cast<size_t>(dim), 0.0);
  active_.assign(static_cast<size_t>(dim), 0);
  for (int i = 0; i < dim; ++i) {
    P(i, i) = kInitialVariance;
  }
}

double LearnedModel::PredictWatts(std::span<const double> phi) const {
  OD_CHECK(static_cast<int>(phi.size()) == dim_);
  double watts = 0.0;
  for (int i = 0; i < dim_; ++i) {
    watts += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
  }
  return std::max(0.0, watts);
}

void LearnedModel::Observe(std::span<const double> phi,
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

  // Every sum over features below reads only the features that are set:
  // theta and P are finite and each sum starts at +0 (or at lambda), so a
  // skipped +-0 term could not change a bit of it.  The indicator features
  // the estimator trains on are mostly zero.
  const size_t n = static_cast<size_t>(dim_);
  size_t active = 0;
  for (size_t j = 0; j < n; ++j) {
    active_[active] = static_cast<int>(j);  // Kept only if phi_j is set.
    active += phi[j] != 0.0 ? 1 : 0;
  }

  // One-step (prequential) prediction error, before this observation is
  // folded in: this is the honest out-of-sample error the confidence
  // signal — and, upstream, the drift sentinel — should see.
  double predicted = 0.0;
  for (size_t a = 0; a < active; ++a) {
    size_t j = static_cast<size_t>(active_[a]);
    predicted += theta_[j] * phi[j];
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
  // P is exactly symmetric (see UpdateCovariance), so row j of P is its
  // column j: P phi accumulates phi_j times row j over the set features in
  // ascending j, which adds each (P phi)_i's terms in the order the
  // row-times-vector sum would, two rows of the result at a time.
  std::fill(pphi_.begin(), pphi_.end(), 0.0);
  for (size_t a = 0; a < active; ++a) {
    size_t j = static_cast<size_t>(active_[a]);
    const double* column = &p_[j * n];
    const Lanes phi_j = {phi[j], phi[j]};
    size_t i = 0;
    for (; i + 1 < n; i += 2) {
      StoreLanes(&pphi_[i],
                 LoadLanes(&pphi_[i]) + LoadLanes(column + i) * phi_j);
    }
    if (i < n) {
      pphi_[i] += column[i] * phi[j];
    }
  }
  double denom = kForgetting;
  for (size_t a = 0; a < active; ++a) {
    size_t j = static_cast<size_t>(active_[a]);
    denom += pphi_[j] * phi[j];
  }
  if (denom < kMinDenominator) {
    ++skipped_updates_;
    return;
  }
  const Lanes denoms = {denom, denom};
  size_t k = 0;
  for (; k + 1 < n; k += 2) {
    StoreLanes(&gain_[k], LoadLanes(&pphi_[k]) / denoms);
  }
  if (k < n) {
    gain_[k] = pphi_[k] / denom;
  }
  double innovation = measured_watts - predicted;
  for (k = 0; k < n; ++k) {
    theta_[k] = std::clamp(theta_[k] + gain_[k] * innovation,
                           kMinCoefficientWatts, kMaxCoefficientWatts);
  }
  UpdateCovariance();

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

void LearnedModel::UpdateCovariance() {
  // P = (P - k (P phi)') / lambda, symmetrised: element (i, j) becomes the
  // mean of the updated (i, j) and (j, i), so that rounding never lets P
  // drift from symmetry, the classic RLS failure mode under forgetting.
  // P is exactly symmetric on entry (it starts diagonal, every update
  // writes one mean to both halves, the guard touches only the diagonal),
  // so the updated (j, i) = (P_ij - k_j (P phi)_i) / lambda reads the same
  // P_ij as (i, j) does: the upper triangle alone carries the update,
  // computed two columns at a time, and each mean is mirrored below.
  const Lanes lambda = {kForgetting, kForgetting};
  const Lanes half = {0.5, 0.5};
  const size_t n = static_cast<size_t>(dim_);
  for (size_t i = 0; i < n; ++i) {
    double* row = &p_[i * n];
    const double gain_i = gain_[i];
    const double pphi_i = pphi_[i];
    row[i] = (row[i] - gain_i * pphi_i) / kForgetting;
    const Lanes gain_ii = {gain_i, gain_i};
    const Lanes pphi_ii = {pphi_i, pphi_i};
    size_t j = i + 1;
    for (; j + 1 < n; j += 2) {
      Lanes p_ij = LoadLanes(row + j);
      Lanes upper = (p_ij - gain_ii * LoadLanes(&pphi_[j])) / lambda;
      Lanes lower = (p_ij - LoadLanes(&gain_[j]) * pphi_ii) / lambda;
      Lanes mean = half * (upper + lower);
      StoreLanes(row + j, mean);
      p_[j * n + i] = mean[0];
      p_[(j + 1) * n + i] = mean[1];
    }
    if (j < n) {
      double upper = (row[j] - gain_i * pphi_[j]) / kForgetting;
      double lower = (row[j] - gain_[j] * pphi_i) / kForgetting;
      double mean = 0.5 * (upper + lower);
      row[j] = mean;
      p_[j * n + i] = mean;
    }
  }
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
