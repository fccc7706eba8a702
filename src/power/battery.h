// Non-ideal battery model.
//
// The paper side-steps battery chemistry by powering the client externally
// ("to avoid confounding effects due to non-ideal battery behavior").  This
// extension models those effects so the goal director can be exercised
// against a realistic supply:
//
//   - rate-dependent capacity (Peukert's law): sustained high draw yields
//     less total energy than the nominal capacity;
//   - internal resistance: part of the drawn power is dissipated inside the
//     battery and never reaches the platform;
//   - recovery: at low draw the effective capacity relaxes back toward
//     nominal.
//
// The model integrates draw against the analytic accountant on a fixed tick
// and exposes the same Residual/Exhausted interface as EnergySupply.

#ifndef SRC_POWER_BATTERY_H_
#define SRC_POWER_BATTERY_H_

#include "src/power/accounting.h"
#include "src/sim/simulator.h"

namespace odpower {

struct BatteryConfig {
  // Energy available at the rated (1C-equivalent) draw.
  double nominal_joules = 13500.0;
  // Draw at which the nominal capacity is delivered in full.
  double rated_watts = 10.0;
  // Peukert exponent: effective drain rate = draw * (draw/rated)^(k-1) for
  // draw above rated.  1.0 = ideal; lead-acid ~1.3; Li-ion ~1.05.
  double peukert_exponent = 1.10;
  // Internal resistance loss as a fraction of draw per rated-draw unit:
  // loss = resistance_fraction * (draw/rated) * draw.
  double resistance_fraction = 0.02;
};

class Battery {
 public:
  // Starts ticking immediately, integrating every 500 ms.
  Battery(odsim::Simulator* sim, EnergyAccounting* accounting,
          const BatteryConfig& config);

  Battery(const Battery&) = delete;
  Battery& operator=(const Battery&) = delete;

  // Energy still extractable at the rated draw.
  double ResidualJoules(odsim::SimTime now);
  bool Exhausted(odsim::SimTime now) { return ResidualJoules(now) <= 0.0; }

  // Total charge drained so far, including internal losses (>= the platform
  // energy actually delivered).
  double drained_joules() const { return drained_joules_; }

  // The battery's own losses so far.
  double loss_joules() const { return loss_joules_; }

  void Stop();

 private:
  void Tick();

  // Effective drain rate for a given platform draw, in watts-of-capacity.
  double EffectiveDrainWatts(double draw_watts) const;

  odsim::Simulator* sim_;
  EnergyAccounting* accounting_;
  BatteryConfig config_;
  odsim::SimTime last_tick_;
  double last_platform_joules_;
  double drained_joules_ = 0.0;
  double loss_joules_ = 0.0;
  odsim::PeriodicHandle next_;
};

}  // namespace odpower

#endif  // SRC_POWER_BATTERY_H_
