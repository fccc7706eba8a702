// SmartBattery-based power monitor (Section 5.1.1's deployment path).
//
// The paper's prototype measures power with external hardware; a deployed
// system would read the SmartBattery / ACPI gas gauge instead: coarser
// readings (quantized current), a slower sampling rate, and a small but
// nonzero measurement overhead (the paper budgets under 14 mW).  This class
// models all three, drawing its overhead as a real component on the machine
// so the cost of monitoring is itself accounted.

#ifndef SRC_POWERSCOPE_SMART_BATTERY_H_
#define SRC_POWERSCOPE_SMART_BATTERY_H_

#include "src/power/cpu.h"
#include "src/power/machine.h"
#include "src/powerscope/power_monitor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odscope {

// The gauge reports once a second, quantized to 0.1 W, and its monitoring
// circuit draws a standing 10 mW on the machine.
struct SmartBatteryConfig {
  // Sampling-phase jitter as a fraction of the period.  Essential: periodic
  // application activity (video chunks arrive every 0.5 s) aliases against
  // a strictly periodic 1 Hz reader, biasing the energy estimate.
  double jitter_fraction = 0.2;
  // Gaussian read noise before quantization.
  double noise_watts = 0.05;
};

class SmartBattery : public PowerMonitor {
 public:
  SmartBattery(odsim::Simulator* sim, odpower::Machine* machine,
               const SmartBatteryConfig& config, uint64_t noise_seed);

  SmartBattery(const SmartBattery&) = delete;
  SmartBattery& operator=(const SmartBattery&) = delete;

  void Start() override;
  void Stop() override;
  double measured_joules() const override { return measured_joules_; }
  odsim::SimDuration period() const override;
  void set_callback(SampleFn callback) override { callback_ = std::move(callback); }

  TelemetryFaults* telemetry_faults() override { return &faults_; }

 private:
  void TakeReading();

  odsim::Simulator* sim_;
  odpower::Machine* machine_;
  SmartBatteryConfig config_;
  odutil::Rng rng_;
  TelemetryFaults faults_;
  bool running_ = false;
  bool has_delivered_ = false;
  odsim::EventHandle next_;
  odsim::SimTime last_reading_time_;
  double last_watts_ = 0.0;
  double measured_joules_ = 0.0;
  SampleFn callback_;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_SMART_BATTERY_H_
