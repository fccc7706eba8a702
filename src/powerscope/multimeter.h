// Simulated HP 3458a digital multimeter.
//
// Samples the current drawn by the profiling computer through its external
// power input at a fixed rate (the paper samples approximately 600 times a
// second), with Gaussian measurement noise.  Each sample triggers the system
// monitor on the profiling computer, which is modelled by a trigger callback.

#ifndef SRC_POWERSCOPE_MULTIMETER_H_
#define SRC_POWERSCOPE_MULTIMETER_H_

#include <functional>
#include <vector>

#include "src/power/machine.h"
#include "src/powerscope/sample.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odscope {

struct MultimeterConfig {
  // Standard deviation of current measurement noise, in amps.
  double noise_amps = 0.002;
};

class Multimeter {
 public:
  // Input voltage; well-controlled (to within 0.25% on the paper's laptop),
  // so current samples alone suffice to infer energy.
  static constexpr double kSupplyVolts = 12.0;
  static constexpr double kSampleRateHz = 600.0;

  using TriggerFn = std::function<void(odsim::SimTime)>;

  Multimeter(odsim::Simulator* sim, odpower::Machine* machine,
             const MultimeterConfig& config, uint64_t noise_seed);

  Multimeter(const Multimeter&) = delete;
  Multimeter& operator=(const Multimeter&) = delete;

  // Starts periodic sampling; each sample is appended to samples() and the
  // trigger (if set) fires, mirroring the HP-IB trigger line.
  void Start();
  void Stop();

  void set_trigger(TriggerFn trigger) { trigger_ = std::move(trigger); }

  const std::vector<CurrentSample>& samples() const { return samples_; }
  void ClearSamples() { samples_.clear(); }

 private:
  void TakeSample();

  odsim::Simulator* sim_;
  odpower::Machine* machine_;
  MultimeterConfig config_;
  odutil::Rng rng_;
  bool running_ = false;
  odsim::PeriodicHandle next_;
  TriggerFn trigger_;
  std::vector<CurrentSample> samples_;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_MULTIMETER_H_
