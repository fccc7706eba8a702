// Interface for on-line power measurement sources.
//
// Section 5.1.1 lists three deployment paths for power monitoring: the
// prototype's external multimeter (OnlineMonitor here), a SmartBattery /
// ACPI gas gauge (SmartBattery here), or a PCMCIA multimeter.  The goal
// director only needs this narrow interface, so the source is pluggable.

#ifndef SRC_POWERSCOPE_POWER_MONITOR_H_
#define SRC_POWERSCOPE_POWER_MONITOR_H_

#include <functional>

#include "src/powerscope/telemetry_faults.h"
#include "src/sim/time.h"

namespace odscope {

class PowerMonitor {
 public:
  using SampleFn = std::function<void(odsim::SimTime, double watts)>;

  virtual ~PowerMonitor() = default;

  virtual void Start() = 0;
  virtual void Stop() = 0;

  // Energy integrated from readings since Start() — what the adaptation
  // layer believes has been consumed.
  virtual double measured_joules() const = 0;

  // Sampling period (each reading covers this trailing interval).
  virtual odsim::SimDuration period() const = 0;

  // Invoked on every reading, after internal state updates.
  virtual void set_callback(SampleFn callback) = 0;

  // Telemetry disturbance switchboard, for fault injection.  Nullptr when
  // the implementation does not support telemetry faults.
  virtual TelemetryFaults* telemetry_faults() { return nullptr; }
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_POWER_MONITOR_H_
