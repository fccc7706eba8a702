// LearnedModel against a straightforward reference RLS, bit for bit.
//
// The model's update reads only the set features of P phi and computes the
// symmetrised covariance step over the upper triangle, two columns at a
// time.  Both rest on exact identities (adding +-0 to a sum, and P being
// exactly symmetric between updates), so the fit must give the same bits as
// the plain two-pass form kept here: the full P phi, the full
// (P - k (P phi)') / lambda, then the mean of each (i, j), (j, i) pair.
// Seeded streams drive both side by side and every observable is compared
// bitwise after every step.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/power/learned_model.h"
#include "src/util/rng.h"

namespace odpower {
namespace {

// The plain form of LearnedModel's RLS core, with its constants: prior
// variance 100, clamp [-5 W, 25 W], condition bound 1e7, denominator floor
// 1e-9.  It also counts the guard's cap and floor hits apart, so the
// streams below can show they reach both.
class ReferenceModel {
 public:
  explicit ReferenceModel(int dim)
      : dim_(dim),
        theta_(static_cast<size_t>(dim), 0.0),
        p_(static_cast<size_t>(dim * dim), 0.0),
        gain_(static_cast<size_t>(dim), 0.0),
        pphi_(static_cast<size_t>(dim), 0.0) {
    for (int i = 0; i < dim; ++i) {
      P(i, i) = 100.0;
    }
  }

  void Observe(const std::vector<double>& phi, double measured_watts) {
    if (!std::isfinite(measured_watts)) {
      ++skipped_updates;
      return;
    }
    for (double f : phi) {
      if (!std::isfinite(f)) {
        ++skipped_updates;
        return;
      }
    }
    double predicted = 0.0;
    for (int i = 0; i < dim_; ++i) {
      predicted += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
    }
    double denom = LearnedModel::kForgetting;
    for (int i = 0; i < dim_; ++i) {
      double acc = 0.0;
      for (int j = 0; j < dim_; ++j) {
        acc += P(i, j) * phi[static_cast<size_t>(j)];
      }
      pphi_[static_cast<size_t>(i)] = acc;
      denom += acc * phi[static_cast<size_t>(i)];
    }
    if (denom < 1e-9) {
      ++skipped_updates;
      return;
    }
    for (int i = 0; i < dim_; ++i) {
      gain_[static_cast<size_t>(i)] = pphi_[static_cast<size_t>(i)] / denom;
    }
    double innovation = measured_watts - predicted;
    for (int i = 0; i < dim_; ++i) {
      theta_[static_cast<size_t>(i)] = std::clamp(
          theta_[static_cast<size_t>(i)] +
              gain_[static_cast<size_t>(i)] * innovation,
          -5.0, 25.0);
    }
    for (int i = 0; i < dim_; ++i) {
      for (int j = 0; j < dim_; ++j) {
        P(i, j) = (P(i, j) - gain_[static_cast<size_t>(i)] *
                                 pphi_[static_cast<size_t>(j)]) /
                  LearnedModel::kForgetting;
      }
    }
    for (int i = 0; i < dim_; ++i) {
      for (int j = i + 1; j < dim_; ++j) {
        double mean = 0.5 * (P(i, j) + P(j, i));
        P(i, j) = mean;
        P(j, i) = mean;
      }
    }
    bool guarded = false;
    double max_diag = 0.0;
    for (int i = 0; i < dim_; ++i) {
      if (P(i, i) > 100.0) {
        P(i, i) = 100.0;
        guarded = true;
        ++cap_hits;
      }
      max_diag = std::max(max_diag, P(i, i));
    }
    double floor = max_diag / 1e7;
    for (int i = 0; i < dim_; ++i) {
      if (P(i, i) < floor) {
        P(i, i) = floor;
        guarded = true;
        ++floor_hits;
      }
    }
    if (guarded) {
      ++guarded_updates;
    }
  }

  double PredictWatts(const std::vector<double>& phi) const {
    double watts = 0.0;
    for (int i = 0; i < dim_; ++i) {
      watts += theta_[static_cast<size_t>(i)] * phi[static_cast<size_t>(i)];
    }
    return std::max(0.0, watts);
  }

  double coefficient(int i) const { return theta_[static_cast<size_t>(i)]; }

  double condition_proxy() {
    double max_diag = 0.0;
    double min_diag = P(0, 0);
    for (int i = 0; i < dim_; ++i) {
      max_diag = std::max(max_diag, P(i, i));
      min_diag = std::min(min_diag, P(i, i));
    }
    return min_diag > 0.0 ? max_diag / min_diag
                          : std::numeric_limits<double>::infinity();
  }

  int guarded_updates = 0;
  int skipped_updates = 0;
  int cap_hits = 0;
  int floor_hits = 0;

 private:
  double& P(int row, int col) {
    return p_[static_cast<size_t>(row * dim_ + col)];
  }

  int dim_;
  std::vector<double> theta_;
  std::vector<double> p_;
  std::vector<double> gain_;
  std::vector<double> pphi_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

enum class Stream {
  // 0/1 state indicators behind a constant intercept, as the estimator's
  // snapshot features are.
  kIndicator,
  // Real values with exact zeros mixed in, and a zero intercept now and
  // then.
  kRealWithZeros,
  // Mostly one indicator, with rare large-magnitude excitations: the
  // excited directions' variance collapses and the idle ones' grows, so
  // the guard both caps and floors the diagonal.
  kGuard,
};

struct Totals {
  int cap_hits = 0;
  int floor_hits = 0;
  int skipped = 0;
};

// Drives both models through `steps` observations of `stream` and compares
// every observable after each one.  `totals` receives the reference's guard
// and skip counts, so callers can check the stream reached the branch it is
// for.
void RunPaired(int dim, Stream stream, uint64_t seed, int steps,
               Totals* totals) {
  odutil::Rng rng(seed);
  LearnedModel model(dim);
  ReferenceModel reference(dim);
  std::vector<double> phi(static_cast<size_t>(dim));
  std::vector<double> truth(static_cast<size_t>(dim));
  for (double& watts : truth) {
    watts = rng.Uniform(-2.0, 12.0);
  }
  for (int step = 0; step < steps; ++step) {
    for (int j = 0; j < dim; ++j) {
      double& f = phi[static_cast<size_t>(j)];
      switch (stream) {
        case Stream::kIndicator:
          f = (j == 0 || rng.Bernoulli(0.3)) ? 1.0 : 0.0;
          break;
        case Stream::kRealWithZeros:
          f = rng.Bernoulli(0.4) ? 0.0 : rng.Uniform(-1.0, 2.0);
          break;
        case Stream::kGuard:
          f = j == 0 ? 1.0 : 0.0;
          if (j > 0 && rng.Bernoulli(0.02)) {
            f = rng.Uniform(1e4, 1e5);
          }
          break;
      }
    }
    double watts = 0.0;
    for (int j = 0; j < dim; ++j) {
      watts += truth[static_cast<size_t>(j)] * phi[static_cast<size_t>(j)];
    }
    watts += rng.Uniform(-0.3, 0.3);
    // Skipped updates: a non-finite reading, or a non-finite feature.
    if (rng.Bernoulli(0.01)) {
      watts = rng.Bernoulli(0.5) ? std::nan("")
                                 : std::numeric_limits<double>::infinity();
    } else if (rng.Bernoulli(0.01)) {
      phi[static_cast<size_t>(rng.UniformInt(0, dim - 1))] = std::nan("");
    }

    model.Observe(phi, watts);
    reference.Observe(phi, watts);

    SCOPED_TRACE(::testing::Message()
                 << "dim " << dim << " stream " << static_cast<int>(stream)
                 << " step " << step);
    for (int i = 0; i < dim; ++i) {
      ASSERT_EQ(Bits(model.coefficient(i)), Bits(reference.coefficient(i)))
          << "coefficient " << i;
    }
    ASSERT_EQ(Bits(model.PredictWatts(phi)), Bits(reference.PredictWatts(phi)));
    ASSERT_EQ(Bits(model.condition_proxy()), Bits(reference.condition_proxy()));
    ASSERT_EQ(model.guarded_updates(), reference.guarded_updates);
    ASSERT_EQ(model.skipped_updates(), reference.skipped_updates);
  }
  *totals = Totals{reference.cap_hits, reference.floor_hits,
                    reference.skipped_updates};
}

// Dims 1-16 cover both an even and an odd count of off-diagonal columns
// left in each row of the two-column update.
TEST(LearnedModelReferenceTest, IndicatorFeaturesMatchBitForBit) {
  for (int dim = 1; dim <= 16; ++dim) {
    Totals totals;
    RunPaired(dim, Stream::kIndicator, 100 + dim, 3000, &totals);
    if (HasFatalFailure()) return;
    EXPECT_GT(totals.skipped, 0) << "dim " << dim;
  }
}

TEST(LearnedModelReferenceTest, RealFeaturesWithZerosMatchBitForBit) {
  for (int dim = 1; dim <= 16; ++dim) {
    Totals totals;
    RunPaired(dim, Stream::kRealWithZeros, 200 + dim, 3000, &totals);
    if (HasFatalFailure()) return;
    EXPECT_GT(totals.skipped, 0) << "dim " << dim;
  }
}

TEST(LearnedModelReferenceTest, GuardCapAndFloorMatchBitForBit) {
  for (int dim = 2; dim <= 16; ++dim) {
    Totals totals;
    RunPaired(dim, Stream::kGuard, 300 + dim, 3000, &totals);
    if (HasFatalFailure()) return;
    EXPECT_GT(totals.cap_hits, 0) << "dim " << dim;
    EXPECT_GT(totals.floor_hits, 0) << "dim " << dim;
  }
}

}  // namespace
}  // namespace odpower
