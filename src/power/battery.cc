#include "src/power/battery.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace odpower {
namespace {

// Integration tick.
constexpr odsim::SimDuration kTick = odsim::SimDuration::Millis(500);

}  // namespace

Battery::Battery(odsim::Simulator* sim, EnergyAccounting* accounting,
                 const BatteryConfig& config)
    : sim_(sim), accounting_(accounting), config_(config) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(accounting != nullptr);
  OD_CHECK(config.nominal_joules > 0.0);
  OD_CHECK(config.rated_watts > 0.0);
  OD_CHECK(config.peukert_exponent >= 1.0);
  last_tick_ = sim_->Now();
  last_platform_joules_ = accounting_->TotalJoules(last_tick_);
  next_ = sim_->Every(kTick, [this] { Tick(); });
}

double Battery::EffectiveDrainWatts(double draw_watts) const {
  double loss =
      config_.resistance_fraction * (draw_watts / config_.rated_watts) * draw_watts;
  double rate_penalty = 1.0;
  if (draw_watts > config_.rated_watts) {
    rate_penalty = std::pow(draw_watts / config_.rated_watts,
                            config_.peukert_exponent - 1.0);
  }
  return draw_watts * rate_penalty + loss;
}

void Battery::Tick() {
  odsim::SimTime now = sim_->Now();
  double platform = accounting_->TotalJoules(now);
  double dt = (now - last_tick_).seconds();
  if (dt > 0.0) {
    double draw_watts = (platform - last_platform_joules_) / dt;
    double effective = EffectiveDrainWatts(draw_watts);
    drained_joules_ += effective * dt;
    loss_joules_ += (effective - draw_watts) * dt;
  }
  last_tick_ = now;
  last_platform_joules_ = platform;
}

double Battery::ResidualJoules(odsim::SimTime now) {
  // Fold in the partial interval since the last tick so queries between
  // ticks stay monotone.
  double platform = accounting_->TotalJoules(now);
  double dt = (now - last_tick_).seconds();
  double pending = 0.0;
  if (dt > 0.0) {
    double draw_watts = (platform - last_platform_joules_) / dt;
    pending = EffectiveDrainWatts(draw_watts) * dt;
  }
  return std::max(0.0, config_.nominal_joules - drained_joules_ - pending);
}

void Battery::Stop() {
  next_.Cancel();
}

}  // namespace odpower
