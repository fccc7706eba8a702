// Simulator-core workloads.
//
// Fleet scale (src/apps/fleet.h) multiplies event counts by orders of
// magnitude, making the event queue, the power integrator, and callback
// dispatch the hot path.  These cells are the fixed, seeded workloads behind
// `odbench run simspeed`: each returns its deterministic facts (event count,
// simulated seconds, a workload checksum), byte-identical for a fixed seed
// on any machine and at any --jobs.  The committed simspeed golden gates
// them exactly; host speed per layer is odperf's record, not these cells'.

#ifndef SRC_APPS_SIMSPEED_H_
#define SRC_APPS_SIMSPEED_H_

#include <cstdint>

namespace odapps {

struct SimspeedCell {
  uint64_t events = 0;        // Simulator events dispatched.
  double sim_seconds = 0.0;   // Simulated time covered.
  uint32_t checksum = 0;      // Folded FNV-1a signature of the replay.
};

// Pure event-queue churn: 512 self-rescheduling timers with seeded jitter,
// each push also arming a deadline timer that is almost always cancelled
// before it fires — the RPC-deadline pattern that grows the pending set
// with lazily-cancelled entries.
SimspeedCell RunQueueChurnCell(uint64_t seed);

// The power/energy layer: 96 ThinkPad machines, each with a noisy online
// monitor at 100 ms and a display toggling bright/dim, so every sample
// crosses Machine::TotalPower and every toggle crosses the analytic
// accountant.
SimspeedCell RunMonitorGridCell(uint64_t seed);

// The fleet-shaped cell: RunFleetScenario with `clients` devices and the
// distilled-content cache on — the same shape as the fleet_sweep cells that
// motivated this benchmark.
SimspeedCell RunFleetShapedCell(uint64_t seed, int clients = 2000);

}  // namespace odapps

#endif  // SRC_APPS_SIMSPEED_H_
