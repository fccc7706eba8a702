// Network bandwidth estimation.
//
// The initial Odyssey prototype adapted to network bandwidth; energy
// adaptation was added on top (Section 2.2).  This monitor completes that
// original path: it observes bytes moved by the link over a sliding window,
// periodically estimates available bandwidth, and reports it to the viceroy
// as ResourceId::kNetworkBandwidth so that registered application
// expectation windows trigger fidelity upcalls.

#ifndef SRC_NET_BANDWIDTH_MONITOR_H_
#define SRC_NET_BANDWIDTH_MONITOR_H_

#include <deque>
#include <functional>

#include "src/net/link.h"
#include "src/sim/simulator.h"

namespace odnet {

// One periodic bandwidth estimate, with the health signals the viceroy's
// outage clamp keys on.  `outage` is the link's hard outage flag; `stale`
// means transfers are parked while the link's pump is not running — a
// wedged channel that has not declared an outage.  (A long in-flight
// transfer is busy, not stale.)  Either way `bps` is zero: an unreachable
// network has no usable bandwidth.
struct BandwidthEstimate {
  double bps = 0.0;
  bool outage = false;
  bool stale = false;

  bool healthy() const { return !outage && !stale; }
};

class BandwidthMonitor {
 public:
  using EstimateFn = std::function<void(odsim::SimTime, double bps)>;
  using HealthFn = std::function<void(odsim::SimTime, const BandwidthEstimate&)>;

  // Estimates once a second over a 5 s sliding window.
  BandwidthMonitor(odsim::Simulator* sim, Link* link);

  BandwidthMonitor(const BandwidthMonitor&) = delete;
  BandwidthMonitor& operator=(const BandwidthMonitor&) = delete;

  void Start();
  void Stop();

  // Observed throughput over the sliding window, bits per second.  When the
  // link was idle the estimate reports the link's configured capacity (an
  // idle network is not a slow network).  Zero during an outage.
  double EstimatedBps() const { return Estimate().bps; }

  // The full estimate, health flags included.
  BandwidthEstimate Estimate() const;

  // Called after every periodic estimate; wire this to
  // Viceroy::NotifyResourceLevel(kNetworkBandwidth, bps).
  void set_callback(EstimateFn callback) { callback_ = std::move(callback); }

  // Richer periodic callback carrying the health flags; wire this to
  // Viceroy::NotifyLinkHealth so applications are clamped to lowest
  // fidelity through an outage.  Both callbacks fire when both are set.
  void set_health_callback(HealthFn callback) {
    health_callback_ = std::move(callback);
  }

 private:
  void Tick();
  void Prune(odsim::SimTime now) const;

  odsim::Simulator* sim_;
  Link* link_;
  bool running_ = false;
  odsim::PeriodicHandle next_;
  EstimateFn callback_;
  HealthFn health_callback_;

  struct Observation {
    odsim::SimTime time;
    size_t bytes;
    double busy_seconds;
  };
  mutable std::deque<Observation> observations_;
};

}  // namespace odnet

#endif  // SRC_NET_BANDWIDTH_MONITOR_H_
