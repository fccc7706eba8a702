// Energy supply.
//
// Models either a finite store of joules (for goal-directed adaptation) or
// the external supply the paper used for measurement runs (battery removed,
// effectively infinite).  The supply does no integration of its own; it
// reads residual energy off the analytic accountant, matching Section 5.1's
// "assume a known initial value" residual-energy computation.

#ifndef SRC_POWER_SUPPLY_H_
#define SRC_POWER_SUPPLY_H_

#include "src/power/accounting.h"
#include "src/sim/time.h"

namespace odpower {

class EnergySupply {
 public:
  // Finite supply of `initial_joules`, measured from the accountant's
  // current total.
  EnergySupply(EnergyAccounting* accounting, double initial_joules);

  // Remaining energy at `now`; clamped at zero.
  double ResidualJoules(odsim::SimTime now);

  bool Exhausted(odsim::SimTime now) { return ResidualJoules(now) <= 0.0; }

  double initial_joules() const { return initial_joules_; }

 private:
  EnergyAccounting* accounting_;
  double initial_joules_;
  double consumed_base_;
};

}  // namespace odpower

#endif  // SRC_POWER_SUPPLY_H_
