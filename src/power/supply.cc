#include "src/power/supply.h"

#include <algorithm>

#include "src/util/check.h"

namespace odpower {

EnergySupply::EnergySupply(EnergyAccounting* accounting, double initial_joules)
    : accounting_(accounting), initial_joules_(initial_joules) {
  OD_CHECK(accounting != nullptr);
  OD_CHECK(initial_joules > 0.0);
  // Anchor to current consumption so earlier activity does not count.
  consumed_base_ = accounting_->TotalJoules(accounting_->machine()->sim()->Now());
}

double EnergySupply::ResidualJoules(odsim::SimTime now) {
  double consumed = accounting_->TotalJoules(now) - consumed_base_;
  return std::max(0.0, initial_joules_ - consumed);
}

}  // namespace odpower
