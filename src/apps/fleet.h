// Fleet-scale Odyssey: many devices, one distillation service.
//
// The paper's testbed is one client against dedicated servers.  This module
// asks the production question: N seeded devices — each with its own
// ThinkPad power model, WaveLAN link, viceroy, and GoalDirector — share one
// odserve::SharedService inside one simulator event loop.  As the client
// count grows the service queue lengthens, and because an RPC holds the
// client's wireless interface out of standby for the whole exchange, queue
// latency is paid in client energy: contention at the server drains
// batteries at the edge.  The distilled-content cache bends that curve —
// a cache hit skips the compute queue entirely, so the exchange costs only
// the transfer.
//
// Fleet devices are deliberately light: they submit no CPU work (the
// simulator models a single CPU, which devices must not share) and disable
// the link's interrupt-batch accounting for the same reason.  The fleet
// workload is the warden fetch path — the part of the testbed the shared
// service actually serves — driven by a per-device fidelity ladder under
// goal-directed adaptation.  Each fleet warden attaches to the service as a
// session (Viceroy::RegisterWarden with a service); a default-configured
// shared service serves a single client event for event like the private
// server a TestBed warden gets.

#ifndef SRC_APPS_FLEET_H_
#define SRC_APPS_FLEET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/energy/goal_director.h"
#include "src/fault/fault_plan.h"
#include "src/odyssey/application.h"
#include "src/power/supply.h"
#include "src/power/thinkpad560x.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"

namespace odapps {

// The fleet application's fidelity ladder, lowest first.  Odyssey fidelity
// semantics: lower fidelity means a smaller reply (cheaper for the client)
// but *more* server-side distillation work — degrading the fleet pushes
// load toward the server, the tension the content cache resolves.
struct FleetLevelSpec {
  const char* name;
  size_t reply_bytes;
  odsim::SimDuration distill_time;  // Server work before speed_factor.
};
const std::vector<FleetLevelSpec>& FleetLevels();

// A minimal adaptive application: the fidelity ladder above, no rendering.
// The device's fetch loop reads current_fidelity() for each fetch, so
// director upcalls (and overload clamps) take effect on the next fetch.
class FleetApp : public odyssey::AdaptiveApplication {
 public:
  explicit FleetApp(std::string name, int priority = 0);

  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }
  const odyssey::FidelitySpec& fidelity_spec() const override;
  int current_fidelity() const override { return level_; }
  void SetFidelity(int level) override { level_ = level; }

 private:
  std::string name_;
  int priority_;
  int level_;
};

struct FleetOptions {
  int clients = 32;
  uint64_t seed = 1;

  // Per-device battery goal.  initial_joules == 0 sizes the budget as
  // 3.80 W * goal: between an uncontended device's draw and a queue-bound
  // one's, so attainment measures contention, not slack.
  odsim::SimDuration goal = odsim::SimDuration::Seconds(600);
  double initial_joules = 0.0;

  // The shared distillation service.  The default is provisioned so the
  // fleet saturates it in the hundreds of clients: batching keeps the
  // queue bounded by the number of distinct in-flight keys, and the cache
  // (when enabled by the caller) absorbs repeats outright.
  odserve::ServiceConfig service{.speed_factor = 4.0,
                                 .max_queue = 0,
                                 .batch_same_key = true,
                                 .cache_capacity = 0};

  // Device workload: one keyed fetch (a 256-byte request) every 5 s
  // (per-device jitter), over a universe of 256 shared objects.  Keys are
  // object id + fidelity level, so a degraded fleet concentrates its keys
  // — and its cache hits.  A device with four fetches outstanding skips
  // the period instead of piling more onto a slow service.
  //
  // Per-device behavior diversity: assign each device a scenario from the
  // named library by seed-indexed rotation (library[(seed + i) % size])
  // and gate its fetch loop on that behavior timeline — the device fetches
  // only where its scenario is active and has coverage, wrapping modulo
  // the scenario duration for runs longer than the scenario.  Off (the
  // default) keeps the uniform always-on fetch loop, byte-identical to the
  // pre-scenario fleet.
  bool scenario_diversity = false;

  // Per-device adaptation machinery, tuned down for scale (coarser monitor
  // and evaluation cadence than the single-client testbed; no timeline).
  static constexpr odenergy::GoalDirectorConfig director{
      .evaluation_period = odsim::SimDuration::Seconds(1),
      .record_timeline = false};
  static constexpr odsim::SimDuration monitor_period =
      odsim::SimDuration::Millis(500);

  // Disturbance plan (odfault grammar).  Stall windows apply to the shared
  // service — one wedged distiller degrades the whole fleet.  Device-level
  // kinds (link, loss, disk, telemetry) target device 0.
  odfault::FaultPlan fault_plan;

  // Optional per-device probe at 1 Hz — the chaos soak's hook for
  // invariants (per-device energy conservation).
  std::function<void(int device, odsim::SimTime now, odpower::Laptop&,
                     odpower::EnergySupply&)>
      device_probe;

  // Slack past the goal for final director evaluations.
  static constexpr odsim::SimDuration run_slack = odsim::SimDuration::Seconds(2);
};

struct FleetDeviceResult {
  bool goal_met = false;
  double residual_joules = 0.0;
  double consumed_joules = 0.0;
  int final_fidelity = 0;
  int fetches = 0;
  int rejected_fetches = 0;
  int cache_hits = 0;
  int failed_fetches = 0;
  int overload_clamps = 0;
  // Fetch ticks suppressed by the device's behavior timeline (idle or
  // coverage-gap stretch); 0 unless scenario_diversity is on.
  int scenario_skipped_ticks = 0;
};

struct FleetResult {
  int clients = 0;
  double elapsed_seconds = 0.0;
  // Simulator events dispatched over the whole scenario (including settle);
  // the fleet-shaped cell of `odbench run simspeed` records it exactly.
  uint64_t events_processed = 0;

  // -- Fleet-side aggregates --------------------------------------------------
  int goal_met_count = 0;
  double goal_attainment = 0.0;  // Fraction of devices that met their goal.
  double mean_final_fidelity = 0.0;
  double mean_residual_joules = 0.0;
  double mean_consumed_joules = 0.0;
  int total_fetches = 0;
  int total_rejected_fetches = 0;
  int total_device_cache_hits = 0;
  int devices_overload_clamped = 0;
  int total_scenario_skipped_ticks = 0;

  // -- Server-side aggregates -------------------------------------------------
  int server_completed = 0;
  int server_rejected = 0;
  int server_cache_hits = 0;
  int server_batch_joins = 0;
  int server_cache_evictions = 0;
  double server_busy_seconds = 0.0;
  double server_utilization = 0.0;  // busy_seconds / elapsed.
  double cache_hit_rate = 0.0;      // hits / completed (hits count as completed).
  double queue_wait_mean_seconds = 0.0;
  double queue_wait_p50_seconds = 0.0;
  double queue_wait_p95_seconds = 0.0;

  std::vector<FleetDeviceResult> devices;
};

FleetResult RunFleetScenario(const FleetOptions& options);

}  // namespace odapps

#endif  // SRC_APPS_FLEET_H_
