// Future energy demand prediction (Section 5.1.2).
//
// Demand = smoothed power * time remaining until the goal.  The smoothing
// half-life is a fixed fraction (10% by default, chosen by the paper's
// sensitivity analysis) of the time remaining, so the predictor is stable
// when the goal is distant and agile as it nears.

#ifndef SRC_ENERGY_PREDICTOR_H_
#define SRC_ENERGY_PREDICTOR_H_

#include "src/energy/smoothing.h"

namespace odenergy {

class DemandPredictor {
 public:
  // `half_life_fraction`: the smoothing half-life as a fraction of the time
  // remaining until the goal.
  explicit DemandPredictor(double half_life_fraction = 0.10);

  // Records a power observation covering the trailing `dt_seconds`, with
  // `remaining_seconds` left until the goal.
  void AddSample(double watts, double dt_seconds, double remaining_seconds);

  // Predicted energy demand between now and the goal, in joules.
  double PredictedDemandJoules(double remaining_seconds) const;

  double smoothed_watts() const { return smoother_.value(); }

  void Reset();

 private:
  double half_life_fraction_;
  ExponentialSmoother smoother_;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_PREDICTOR_H_
