// Deterministic pseudo-random number generator.
//
// Every stochastic element of the simulation (multimeter noise, bursty
// workload transitions, utterance jitter) draws from an explicitly seeded
// Rng so that experiments are reproducible run-to-run.  The generator is
// PCG32 (O'Neill), seeded through SplitMix64; both are small, fast, and have
// no global state.

#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>

namespace odutil {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 32-bit value.
  uint32_t NextU32();

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi);

  // True with probability p.
  bool Bernoulli(double p);

  // Normal (Gaussian) with the given mean and standard deviation.
  double Normal(double mean, double stddev);

 private:
  uint64_t state_;
  uint64_t inc_;
  // Cached second value from the Box-Muller transform.
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace odutil

#endif  // SRC_UTIL_RNG_H_
