// Adaptation hysteresis (Section 5.1.3).
//
// Applications degrade as soon as predicted demand exceeds residual energy.
// Upgrades require supply to exceed demand by a margin that is the sum of a
// variable component (5% of residual energy — bias toward stability when
// energy is plentiful) and a constant component (1% of the initial energy —
// bias against improvement when residual energy is low), and are capped at
// one improvement per 15 seconds.

#ifndef SRC_ENERGY_HYSTERESIS_H_
#define SRC_ENERGY_HYSTERESIS_H_

#include "src/sim/time.h"

namespace odenergy {

struct HysteresisConfig {
  // Variable margin: fraction of residual energy.
  double variable_fraction = 0.05;
  // Constant margin: fraction of the initial energy supply.
  double constant_fraction = 0.01;
  // Minimum spacing between fidelity improvements.
  odsim::SimDuration upgrade_interval = odsim::SimDuration::Seconds(15);
};

enum class AdaptAction {
  kNone,
  kDegrade,
  kUpgrade,
};

class HysteresisPolicy {
 public:
  explicit HysteresisPolicy(const HysteresisConfig& config = HysteresisConfig{});

  // Decides the action given predicted demand, residual energy, and the
  // initial supply, at time `now`.
  AdaptAction Decide(double demand_joules, double residual_joules,
                     double initial_joules, odsim::SimTime now);

  // Must be called when an upgrade is actually issued, to restart the cap.
  void NoteUpgrade(odsim::SimTime now);

  double UpgradeMarginJoules(double residual_joules, double initial_joules) const;

 private:
  HysteresisConfig config_;
  odsim::SimTime last_upgrade_ = odsim::SimTime::Zero();
  bool has_upgraded_ = false;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_HYSTERESIS_H_
