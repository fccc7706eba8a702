// Summary statistics used by the benchmark harness.
//
// The paper reports each measurement as the mean of five or ten trials with
// a sample standard deviation or a 90% confidence interval; RunningStats and
// Summarize() provide exactly those quantities.

#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace odutil {

// Single-pass accumulator for mean and variance (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const;
  // Sample variance (divides by n - 1).
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// A complete summary of a set of trials.
struct Summary {
  size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  // Half-width of the 90% confidence interval on the mean (Student's t).
  double ci90_halfwidth = 0.0;
};

Summary Summarize(const std::vector<double>& samples);

// Two-sided Student's t critical value for 90% confidence with the given
// degrees of freedom (exact table for small df, normal limit otherwise).
double StudentT90(size_t degrees_of_freedom);

// Ordinary least squares fit y = a + b * x.  Returns {a, b, r_squared}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LinearFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace odutil

#endif  // SRC_UTIL_STATS_H_
