#include "src/util/rng.h"

#include <cmath>

#include "src/util/check.h"

namespace odutil {
namespace {

// SplitMix64 step, used for seeding.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  state_ = SplitMix64(s);
  inc_ = SplitMix64(s) | 1ULL;  // The PCG increment must be odd.
  // Warm up once so that similar seeds diverge immediately.
  NextU32();
}

uint32_t Rng::NextU32() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
  uint32_t rot = static_cast<uint32_t>(old >> 59);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint64_t Rng::NextU64() {
  return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::Uniform(double lo, double hi) {
  OD_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

int Rng::UniformInt(int lo, int hi) {
  OD_DCHECK(lo <= hi);
  uint32_t span = static_cast<uint32_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 32-bit range requested.
    return static_cast<int>(NextU32());
  }
  // Rejection sampling to avoid modulo bias.
  uint32_t limit = UINT32_MAX - UINT32_MAX % span;
  uint32_t v = NextU32();
  while (v >= limit) {
    v = NextU32();
  }
  return lo + static_cast<int>(v % span);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Normal(double mean, double stddev) {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  // Box-Muller.
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) {
    u1 = NextDouble();
  }
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

}  // namespace odutil
