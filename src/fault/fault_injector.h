// Deterministic fault injection.
//
// The injector schedules every window of a FaultPlan through the simulator
// and applies/reverts the disturbance at the window edges.  Everything runs
// inside simulated time from an explicit plan, so a faulted run is exactly
// as reproducible as a clean one.
//
// Windows of the same kind may overlap (nest): the nominal value is captured
// when the kind first activates, each window start applies its own
// magnitude, and the nominal is restored only when the last window of that
// kind ends.  While nested, the most recently started window's magnitude is
// in effect.

#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <vector>

#include "src/fault/fault_plan.h"
#include "src/net/link.h"
#include "src/net/rpc.h"
#include "src/power/power_manager.h"
#include "src/powerscope/power_monitor.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"

namespace odfault {

// What the injector disturbs.  A target may be null when the plan contains
// no event of the kinds that need it (checked at Arm()).
struct FaultTargets {
  odnet::Link* link = nullptr;            // bandwidth, outage
  odnet::RpcClient* rpc = nullptr;        // loss
  odpower::PowerManager* pm = nullptr;    // disk
  std::vector<odserve::SharedService*> servers;  // stall
  // dropout, stale, nan, gauge, ramp — must expose a TelemetryFaults
  // switchboard.
  odscope::PowerMonitor* monitor = nullptr;
};

class FaultInjector {
 public:
  FaultInjector(odsim::Simulator* sim, FaultTargets targets);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every event of `plan` relative to now.  May be called once.
  void Arm(const FaultPlan& plan);

  // Windows begun so far.
  int windows_begun() const { return windows_begun_; }
  // Windows currently open, across all kinds.
  int active_windows() const;

 private:
  static constexpr int kKindCount = 10;
  static int Index(FaultKind kind) { return static_cast<int>(kind); }

  void Begin(const FaultEvent& event);
  void End(const FaultEvent& event);
  // Advances an active ramp window: interpolates the gauge scale between
  // nominal and the event magnitude at 1 s granularity.
  void RampTick(const FaultEvent& event, odsim::SimTime begin);
  // Open windows that own the gauge-scale knob (step drift + ramp drift).
  int GaugeWindowsActive() const;

  odsim::Simulator* sim_;
  FaultTargets targets_;
  bool armed_ = false;
  int windows_begun_ = 0;
  int active_[kKindCount] = {};
  double nominal_bandwidth_bps_ = 0.0;
  double nominal_loss_probability_ = 0.0;
  double nominal_disk_scale_ = 1.0;
  double nominal_gauge_scale_ = 1.0;
};

}  // namespace odfault

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
