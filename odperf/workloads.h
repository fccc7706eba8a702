// The odperf workloads: independent batch units that reach the program only
// through odapps::RunFleetScenario and odapps::RunGoalScenario (with
// odscenario::ApplyScenarioWorkload), with output checks on every unit.
//
//   fleet_contended  1000 devices, 600 s goal, shared-service cache off.
//                    Loads the event queue (lockstep monitor and director
//                    timers), the service's FIFO and batching, and the
//                    infeasibility path (one [WARN] line per device).
//   fleet_cached     The same fleet with cache_capacity = 512: the service
//                    answers cache lookups and does LRU work instead.
//   goal_defended    The six library scenarios over a seed set, each run a
//                    fully wired TestBed with the learned model and drift
//                    sentinel armed and a sub-plausible gauge window appended
//                    to the scenario's derived gap plan.
//
// Simulated traffic inside a unit is an open loop in simulated time; on the
// host each unit is one closed batch.  Every number in UnitResult except
// those marked "observed" is a function of (plan, unit index) alone.

#ifndef ODPERF_WORKLOADS_H_
#define ODPERF_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "odperf/trace.h"
#include "src/fault/fault_plan.h"
#include "src/scenario/scenario.h"

namespace odperf {

enum class Workload { kFleetContended, kFleetCached, kGoalDefended };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* workload);

// Input size of one unit.  The benchmark runs the defaults; tests shrink
// them.
struct UnitSize {
  int fleet_devices = 1000;
  double fleet_goal_seconds = 600.0;
  int goal_seeds = 10;      // Seeds per scenario per unit.
  int goal_scenarios = 6;   // Leading library scenarios run per seed.
};

// One goal run's inputs, parsed from canonical text during set-up.
struct GoalRunInput {
  odscenario::Scenario scenario;
  odfault::FaultPlan fault_plan;  // Derived gap plan + gauge window.
};

// Everything the units of one benchmark run share; building it is the
// benchmark's timed set-up.
struct Plan {
  Workload workload = Workload::kFleetContended;
  uint64_t seed = 1;
  UnitSize size;
  // goal_defended: scenario x gauge-window variant (index 0: gauge, 1: ramp).
  std::vector<GoalRunInput> goal_inputs;
};

Plan Prepare(Workload workload, uint64_t seed, const UnitSize& size = {});

// The seed of unit `unit`: no two units of a run, and no two runs with
// different --seed, share one.
uint64_t UnitSeed(const Plan& plan, int unit);

struct UnitResult {
  // Output checks.
  bool ok = true;
  std::string failure;  // First failed check, when !ok.

  // Deterministic simulated statistics.
  int runs = 0;                  // Devices (fleets) or goal runs.
  uint64_t events = 0;           // Simulator events dispatched.
  double sim_seconds = 0.0;      // Simulated run-seconds summed over runs.
  double goal_attainment = 0.0;  // Fraction of runs that met their goal.
  double goal_life_frac = 0.0;   // Mean of min(lifetime, goal) / goal.
  double residual_joules = 0.0;  // Summed true residual at the end.
  double estimate_err_pct = 0.0; // goal_defended: mean |est - true| / initial.

  double serve_completed = 0, serve_cache_hits = 0, serve_batch_joins = 0,
         serve_evictions = 0, serve_rejected = 0, serve_busy_s = 0,
         serve_utilization = 0, serve_wait_p50_s = 0, serve_wait_p95_s = 0,
         serve_cache_hit_rate = 0;
  double net_rpcs = 0, net_failed = 0;
  double overload_clamps = 0, outage_clamps = 0;
  double adaptations = 0, safe_mode_entries = 0, drift_entries = 0,
         invalid_samples = 0, mean_final_fidelity = 0;
  double video_segments = 0, pages = 0, maps = 0, utterances = 0,
         composite_iterations = 0, composite_deferrals = 0, sync_fetches = 0;

  // Observed through benchmark-owned observers; zero unless the unit ran
  // traced.  Deterministic all the same.
  double power_state_changes = 0, power_cpu_switches = 0;

  // Host seconds spent in the program, reference ticks excluded.  Not part
  // of the signature.
  double host_seconds = 0.0;

  // One line that identifies the simulated outcome exactly.
  std::string Signature() const;
};

// Number of reference ticks a unit of `size` makes: one after each goal
// run, or one every kFleetTickSeconds simulated seconds of a fleet run.
constexpr int kFleetTickSeconds = 10;
int ReferenceTicks(Workload workload, const UnitSize& size);

// Runs unit `unit` of `plan`, invoking `reference_tick` (when set) at
// ReferenceTicks() points spread through the unit: after each goal run, and
// from inside a fleet run through its 1 Hz device probe.  The ticks' own
// time is left out of host_seconds.  With a tracer the unit runs traced:
// the benchmark's passive observers (Machine and CPU) fill the observed
// counts, and every call into the program is a span under `parent`.
// Neither ticks nor tracing may change any other field.
UnitResult RunUnit(const Plan& plan, int unit, Tracer* tracer = nullptr,
                   int parent = Tracer::kNoParent,
                   const std::function<void()>& reference_tick = {});

}  // namespace odperf

#endif  // ODPERF_WORKLOADS_H_
