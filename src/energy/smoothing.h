// Exponential smoothing with a half-life parameter (Section 5.1.2).
//
// Odyssey predicts future energy demand from smoothed observations of past
// power usage: new = (1 - alpha) * sample + alpha * old.  Rather than fixing
// alpha, the half-life form sets alpha per sample so that an old estimate's
// weight halves after `half_life` seconds regardless of sampling period:
// alpha = 2^(-dt / half_life).  The goal director varies the half-life as
// the goal approaches (agility near the goal, stability far from it).

#ifndef SRC_ENERGY_SMOOTHING_H_
#define SRC_ENERGY_SMOOTHING_H_

namespace odenergy {

class ExponentialSmoother {
 public:
  ExponentialSmoother() = default;

  // Sets the half-life, in seconds, applied to subsequent updates.
  void set_half_life(double seconds);

  // Folds in a sample observed over the trailing `dt_seconds`.
  // The first sample initializes the estimate directly.
  void Update(double sample, double dt_seconds);

  double value() const { return value_; }
  bool initialized() const { return initialized_; }

  void Reset();

 private:
  double half_life_seconds_ = 1.0;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_SMOOTHING_H_
