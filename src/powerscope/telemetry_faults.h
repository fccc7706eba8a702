// Telemetry disturbance switchboard for power monitors.
//
// Real power telemetry is unreliable in ways the machine's true draw is
// not: a multimeter link drops samples, a driver wedges and repeats its
// last reading, an ACPI method returns NaN, a miscalibrated gas gauge
// scales every reading.  Each PowerMonitor implementation owns one
// TelemetryFaults instance and pushes every raw reading through
// Corrupt() before reporting it; the fault injector (src/fault) flips the
// switches here at fault-window edges.  With no switch active Corrupt()
// is the identity, so clean runs are bit-identical with or without the
// hook.
//
// Corruption is strictly observational: the machine model, the analytic
// energy accounting, and the true residual supply are untouched.  Only
// what the adaptation layer *believes* is disturbed — which is precisely
// what makes these faults a test of the goal controller.

#ifndef SRC_POWERSCOPE_TELEMETRY_FAULTS_H_
#define SRC_POWERSCOPE_TELEMETRY_FAULTS_H_

#include <optional>

namespace odscope {

class TelemetryFaults {
 public:
  // Drop readings entirely: no callback, no integration.
  void set_dropout(bool on) { dropout_ = on; }
  // Freeze telemetry: repeat the last delivered reading.
  void set_stale(bool on) { stale_ = on; }
  // Deliver NaN readings (the monitor must not integrate them).
  void set_nan(bool on) { nan_ = on; }
  // Scale every reading (1.0 = nominal); models gauge miscalibration.
  void set_gauge_scale(double scale) { gauge_scale_ = scale; }

  double gauge_scale() const { return gauge_scale_; }
  bool any_active() const {
    return dropout_ || stale_ || nan_ || gauge_scale_ != 1.0;
  }

  // Applies the active disturbances to one raw reading.  Returns nullopt
  // when the sample is dropped; otherwise the (possibly corrupted) value
  // the monitor should deliver.  `last_delivered` is the monitor's
  // previous delivered reading, valid only when `has_last` — stale
  // telemetry freezes at it.  Precedence when faults overlap: dropout
  // beats everything (no reading exists to corrupt), then NaN, then
  // stale, then gauge scaling.
  std::optional<double> Corrupt(double raw_watts, double last_delivered,
                                bool has_last) const;

 private:
  bool dropout_ = false;
  bool stale_ = false;
  bool nan_ = false;
  double gauge_scale_ = 1.0;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_TELEMETRY_FAULTS_H_
