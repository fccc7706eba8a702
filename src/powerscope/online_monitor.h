// On-line power monitor (Section 5.1.1).
//
// The deployed system cannot run full PowerScope (external hardware), so
// Odyssey uses an on-line variant: current samples every 100 ms, from which
// it tracks residual energy assuming a known initial value and constant
// power between samples.  This class is that variant: a periodic sampler
// that integrates measured power and exposes the latest reading.

#ifndef SRC_POWERSCOPE_ONLINE_MONITOR_H_
#define SRC_POWERSCOPE_ONLINE_MONITOR_H_

#include <functional>

#include "src/power/machine.h"
#include "src/powerscope/power_monitor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odscope {

struct OnlineMonitorConfig {
  odsim::SimDuration period = odsim::SimDuration::Millis(100);
  // Measurement noise on each power sample, in watts.
  double noise_watts = 0.02;
};

class OnlineMonitor : public PowerMonitor {
 public:
  OnlineMonitor(odsim::Simulator* sim, odpower::Machine* machine,
                const OnlineMonitorConfig& config, uint64_t noise_seed);

  OnlineMonitor(const OnlineMonitor&) = delete;
  OnlineMonitor& operator=(const OnlineMonitor&) = delete;

  void Start() override;
  void Stop() override;

  // Energy integrated from samples since Start() (measured, not analytic —
  // this is what the adaptation layer believes has been consumed).
  double measured_joules() const override { return measured_joules_; }

  odsim::SimDuration period() const override { return config_.period; }

  // Invoked on every sample, after internal state updates.
  void set_callback(SampleFn callback) override { callback_ = std::move(callback); }

  TelemetryFaults* telemetry_faults() override { return &faults_; }

 private:
  void TakeSample();

  odsim::Simulator* sim_;
  odpower::Machine* machine_;
  OnlineMonitorConfig config_;
  odutil::Rng rng_;
  TelemetryFaults faults_;
  bool running_ = false;
  bool has_delivered_ = false;
  // End of the last integrated (or skipped) interval: energy is charged
  // for trailing intervals only, at the power reading that opened them.
  odsim::SimTime anchor_;
  odsim::PeriodicHandle next_;
  double last_watts_ = 0.0;
  double measured_joules_ = 0.0;
  SampleFn callback_;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_ONLINE_MONITOR_H_
