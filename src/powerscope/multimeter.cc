#include "src/powerscope/multimeter.h"

#include <algorithm>

#include "src/util/check.h"

namespace odscope {

Multimeter::Multimeter(odsim::Simulator* sim, odpower::Machine* machine,
                       const MultimeterConfig& config, uint64_t noise_seed)
    : sim_(sim), machine_(machine), config_(config), rng_(noise_seed) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(machine != nullptr);
}

void Multimeter::Start() {
  OD_CHECK(!running_);
  running_ = true;
  TakeSample();
  next_ = sim_->Every(odsim::SimDuration::Seconds(1.0 / kSampleRateHz),
                      [this] { TakeSample(); });
}

void Multimeter::Stop() {
  running_ = false;
  next_.Cancel();
}

void Multimeter::TakeSample() {
  double amps = machine_->TotalPower() / kSupplyVolts;
  if (config_.noise_amps > 0.0) {
    amps = std::max(0.0, rng_.Normal(amps, config_.noise_amps));
  }
  samples_.push_back(CurrentSample{sim_->Now(), amps});
  if (trigger_) {
    trigger_(sim_->Now());
  }
}

}  // namespace odscope
