// The viceroy: Odyssey's central resource monitor and upcall dispatcher
// (Figure 3).
//
// The viceroy tracks registered applications and wardens, carries the shared
// RPC transport used by all wardens, maintains per-resource expectation
// windows, and issues upcalls when resources stray outside an application's
// expectations or when the energy layer directs a fidelity change.

#ifndef SRC_ODYSSEY_VICEROY_H_
#define SRC_ODYSSEY_VICEROY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/bandwidth_monitor.h"
#include "src/net/link.h"
#include "src/net/rpc.h"
#include "src/odyssey/application.h"
#include "src/odyssey/fidelity_clamp.h"
#include "src/power/power_manager.h"
#include "src/sim/simulator.h"

namespace odserve {
class SharedService;
}  // namespace odserve

namespace odyssey {

class Warden;

// Identifies a monitored resource (network bandwidth, energy, ...).
enum class ResourceId {
  kNetworkBandwidth,
  kEnergy,
};

class Viceroy {
 public:
  Viceroy(odsim::Simulator* sim, odnet::Link* link, odpower::PowerManager* pm);
  ~Viceroy();

  Viceroy(const Viceroy&) = delete;
  Viceroy& operator=(const Viceroy&) = delete;

  // -- Application registry --------------------------------------------------

  void RegisterApplication(AdaptiveApplication* app);
  void UnregisterApplication(AdaptiveApplication* app);
  const std::vector<AdaptiveApplication*>& applications() const { return apps_; }

  // -- Wardens ---------------------------------------------------------------

  // The viceroy owns wardens; one per data type in the system.  The
  // one-argument form gives the warden a private server (the classic
  // single-client testbed); the two-argument form attaches the warden as a
  // session on a shared service so many devices multiplex one server.
  Warden* RegisterWarden(std::unique_ptr<Warden> warden);
  Warden* RegisterWarden(std::unique_ptr<Warden> warden,
                         odserve::SharedService* service);
  Warden* FindWarden(const std::string& data_type);
  const std::vector<std::unique_ptr<Warden>>& wardens() const { return wardens_; }

  // -- Upcalls ---------------------------------------------------------------

  // Directs `app` to the given fidelity level and records the adaptation.
  // No-op (and not recorded) if the app is already there.
  void IssueUpcall(AdaptiveApplication* app, int level);

  int AdaptationCount(const AdaptiveApplication* app) const;
  int TotalAdaptations() const;

  // -- Resource expectations (the original Odyssey API) ----------------------

  // Registers a tolerance window; when NotifyResourceLevel() reports a value
  // outside [low, high], the app receives a fidelity upcall chosen by the
  // caller-provided policy (here: one step down when below `low`, one step
  // up when above `high`).
  void RegisterExpectation(AdaptiveApplication* app, ResourceId resource, double low,
                           double high);
  void ClearExpectation(AdaptiveApplication* app, ResourceId resource);
  void NotifyResourceLevel(ResourceId resource, double value);

  // -- Link health and the outage clamp --------------------------------------

  // Periodic link health report; wire a BandwidthMonitor's health callback
  // here.  On an unhealthy estimate (outage or stale) every registered
  // application is clamped to its lowest fidelity and expectation-driven
  // upcalls are suppressed — during an outage there is no bandwidth signal
  // worth reacting to, and the cheapest fidelity minimizes the work wasted
  // on a dead channel.  Pre-clamp levels are restored only after three
  // consecutive healthy reports, so a flapping link does not whipsaw
  // fidelity.
  void NotifyLinkHealth(const odnet::BandwidthEstimate& estimate);

  bool link_clamped() const { return clamp_.engaged(); }
  // Times the clamp engaged (distinct unhealthy episodes).
  int outage_clamps() const { return clamp_.engagements(); }

  // -- Server overload and the overload clamp --------------------------------

  // Wardens report keyed-fetch outcomes here.  A run of consecutive
  // admission rejects (three or more) means the shared service is
  // saturated: every app is clamped to its cheapest fidelity, which both
  // shrinks this device's demand and — because low fidelity keys repeat —
  // raises the chance later fetches hit the service cache.  The clamp
  // releases after three consecutive successful fetches, the same
  // hysteresis discipline as the link clamp, so a service hovering at
  // capacity does not whipsaw fidelity.
  void NotifyAdmissionReject();
  void NotifyFetchOk();

  bool overload_clamped() const { return overload_clamp_.engaged(); }
  // Times the overload clamp engaged (distinct saturation episodes).
  int overload_clamps() const { return overload_clamp_.engagements(); }

  // -- Shared plumbing -------------------------------------------------------

  odsim::Simulator* sim() { return sim_; }
  odnet::Link* link() { return link_; }
  odnet::RpcClient& rpc() { return rpc_; }
  odpower::PowerManager* power_manager() { return pm_; }

 private:
  struct Expectation {
    AdaptiveApplication* app;
    ResourceId resource;
    double low;
    double high;
  };

  odsim::Simulator* sim_;
  odnet::Link* link_;
  odpower::PowerManager* pm_;
  odnet::RpcClient rpc_;

  std::vector<AdaptiveApplication*> apps_;
  std::vector<std::unique_ptr<Warden>> wardens_;
  std::unordered_map<const AdaptiveApplication*, int> adaptation_counts_;
  std::vector<Expectation> expectations_;

  // Outage clamp state (save/clamp/restore itself lives in FidelityClamp,
  // shared with the energy layer's controller safe mode).
  FidelityClamp clamp_{this};
  int healthy_streak_ = 0;

  // Overload clamp state; independent of the outage clamp (both may be
  // engaged at once, each restores the levels it saved).
  FidelityClamp overload_clamp_{this};
  int consecutive_rejects_ = 0;
  int overload_ok_streak_ = 0;
};

}  // namespace odyssey

#endif  // SRC_ODYSSEY_VICEROY_H_
