#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace odutil {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return min_; }

double RunningStats::max() const { return max_; }

double StudentT90(size_t degrees_of_freedom) {
  // Two-sided 90% (alpha = 0.10, 0.95 quantile).
  static const double kTable[] = {
      0.0,   6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833,
      1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729,
      1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699,
      1.697,
  };
  constexpr size_t kTableSize = sizeof(kTable) / sizeof(kTable[0]);
  if (degrees_of_freedom == 0) {
    return 0.0;
  }
  if (degrees_of_freedom < kTableSize) {
    return kTable[degrees_of_freedom];
  }
  return 1.645;  // Normal limit.
}

Summary Summarize(const std::vector<double>& samples) {
  RunningStats stats;
  for (double s : samples) {
    stats.Add(s);
  }
  Summary out;
  out.n = stats.count();
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  out.min = stats.min();
  out.max = stats.max();
  if (out.n >= 2) {
    out.ci90_halfwidth =
        StudentT90(out.n - 1) * out.stddev / std::sqrt(static_cast<double>(out.n));
  }
  return out;
}

LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  OD_CHECK(x.size() == y.size());
  OD_CHECK(x.size() >= 2);
  size_t n = x.size();
  double sx = 0.0, sy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  double mx = sx / static_cast<double>(n);
  double my = sy / static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  LinearFit fit;
  OD_CHECK(sxx > 0.0);
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace odutil
