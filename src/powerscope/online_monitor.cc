#include "src/powerscope/online_monitor.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/util/check.h"

namespace odscope {

OnlineMonitor::OnlineMonitor(odsim::Simulator* sim, odpower::Machine* machine,
                             const OnlineMonitorConfig& config, uint64_t noise_seed)
    : sim_(sim), machine_(machine), config_(config), rng_(noise_seed) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(machine != nullptr);
  OD_CHECK(config.period > odsim::SimDuration::Zero());
}

void OnlineMonitor::Start() {
  OD_CHECK(!running_);
  running_ = true;
  measured_joules_ = 0.0;
  has_delivered_ = false;
  anchor_ = sim_->Now();
  TakeSample();
  next_ = sim_->Every(config_.period, [this] { TakeSample(); });
}

void OnlineMonitor::Stop() {
  if (running_ && has_delivered_) {
    // Close out the partial interval since the last sample at the last
    // known power, so stopping mid-period neither loses that tail nor
    // (as the forward-charging scheme did) counts time past the stop.
    measured_joules_ += last_watts_ * (sim_->Now() - anchor_).seconds();
    anchor_ = sim_->Now();
  }
  running_ = false;
  next_.Cancel();
}

void OnlineMonitor::TakeSample() {
  odsim::SimTime now = sim_->Now();
  double watts = machine_->TotalPower();
  if (config_.noise_watts > 0.0) {
    watts = std::max(0.0, rng_.Normal(watts, config_.noise_watts));
  }
  std::optional<double> delivered =
      faults_.Corrupt(watts, last_watts_, has_delivered_);
  if (!delivered.has_value()) {
    // Sample dropped: no reading, no integration, no callback — the
    // interval ending here is a hole in the estimate.  The sampling
    // clock keeps ticking so recovery needs no re-arming.
    anchor_ = now;
    return;
  }
  watts = *delivered;
  if (std::isfinite(watts)) {
    // Integrate the *trailing* interval at the reading that opened it:
    // energy is only charged for time that has actually elapsed.  (The
    // previous scheme charged the upcoming period at the new reading,
    // biasing the estimate a full period forward — wrong at Start, at
    // Stop, and across every power change.)  Non-finite readings are
    // delivered (the adaptation layer must cope) but never integrated
    // and never become the interval-opening reading: one NaN must not
    // poison the running energy estimate.
    if (has_delivered_) {
      measured_joules_ += last_watts_ * (now - anchor_).seconds();
    }
    last_watts_ = watts;
    has_delivered_ = true;
  }
  anchor_ = now;
  if (callback_) {
    callback_(now, watts);
  }
}

}  // namespace odscope
