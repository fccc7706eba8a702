#include "src/powerscope/smart_battery.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "src/util/check.h"

namespace odscope {

namespace {

// Gas gauges report on the order of once per second.
constexpr odsim::SimDuration kPeriod = odsim::SimDuration::Seconds(1);
// Power readings are quantized to this granularity.
constexpr double kPowerQuantumWatts = 0.1;
// Standing draw of the monitoring circuit (added to the machine).
constexpr double kOverheadWatts = 0.010;

// The monitoring circuit's standing draw, attached as a machine component so
// that monitoring overhead is itself measured and adapted against.
class MonitorCircuit : public odpower::Component {
 public:
  explicit MonitorCircuit(double watts)
      : Component("SmartBattery", {watts}, 0) {}
};

}  // namespace

SmartBattery::SmartBattery(odsim::Simulator* sim, odpower::Machine* machine,
                           const SmartBatteryConfig& config, uint64_t noise_seed)
    : sim_(sim), machine_(machine), config_(config), rng_(noise_seed) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(machine != nullptr);
  machine_->AddComponent(std::make_unique<MonitorCircuit>(kOverheadWatts));
}

odsim::SimDuration SmartBattery::period() const { return kPeriod; }

void SmartBattery::Start() {
  OD_CHECK(!running_);
  running_ = true;
  measured_joules_ = 0.0;
  has_delivered_ = false;
  last_reading_time_ = sim_->Now();
  TakeReading();
}

void SmartBattery::Stop() {
  running_ = false;
  next_.Cancel();
}

void SmartBattery::TakeReading() {
  if (!running_) {
    return;
  }
  odsim::SimTime now = sim_->Now();
  double watts = machine_->TotalPower();
  if (config_.noise_watts > 0.0) {
    watts = std::max(0.0, rng_.Normal(watts, config_.noise_watts));
  }
  // Gas-gauge quantization.
  watts = std::round(watts / kPowerQuantumWatts) * kPowerQuantumWatts;
  std::optional<double> delivered =
      faults_.Corrupt(watts, last_watts_, has_delivered_);
  if (delivered.has_value()) {
    watts = *delivered;
    if (std::isfinite(watts)) {
      last_watts_ = watts;
      has_delivered_ = true;
      // Constant power assumed over the trailing interval.  NaN readings
      // are delivered but never integrated; energy over a dropped or NaN
      // window is simply missing from the estimate (the goal controller
      // bridges such gaps itself — see GoalDirector).
      measured_joules_ += watts * (now - last_reading_time_).seconds();
    }
    last_reading_time_ = now;
    if (callback_) {
      callback_(now, watts);
    }
  } else {
    last_reading_time_ = now;
  }
  // Jittered schedule to decouple sampling from periodic app activity.
  double scale = 1.0;
  if (config_.jitter_fraction > 0.0) {
    scale = rng_.Uniform(1.0 - config_.jitter_fraction,
                         1.0 + config_.jitter_fraction);
  }
  next_ = sim_->Schedule(kPeriod * scale, [this] { TakeReading(); });
}

}  // namespace odscope
