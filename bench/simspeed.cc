// Simulator workload counts (not a paper figure; DESIGN §9).
//
// Runs the fixed seeded workloads in src/apps/simspeed.h — pure event-queue
// churn, the power/energy sampling grid, and a fleet-shaped cell — and
// records each one's deterministic facts (events dispatched, simulated
// seconds, workload checksum).  The committed compact golden
// (tests/data/artifacts/simspeed.json) gates them exactly; host speed is
// odperf's record (BENCHMARK.json), not this experiment's.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/simspeed.h"
#include "src/util/table.h"

namespace {

struct CellSpec {
  const char* name;
  uint64_t seed;
  odapps::SimspeedCell (*run)(uint64_t seed);
};

const std::vector<CellSpec>& Cells() {
  static const std::vector<CellSpec> kCells = {
      {"queue_churn", 97001, &odapps::RunQueueChurnCell},
      {"monitor_grid", 97002, &odapps::RunMonitorGridCell},
      {"fleet_2k", 97003,
       [](uint64_t seed) { return odapps::RunFleetShapedCell(seed); }},
  };
  return kCells;
}

}  // namespace

ODBENCH_EXPERIMENT(simspeed,
                   "Simulator workload counts: events, simulated seconds "
                   "and checksum of fixed seeded workloads") {
  odutil::Table table("Simulator workload counts (deterministic)");
  table.SetHeader({"Cell", "Events", "Sim s", "Checksum"});

  // The cells run one after another, not as Sweep cells: together they take
  // about a second, so running them concurrently would save little next to
  // fleet_sweep's ten fleet runs.
  for (const CellSpec& spec : Cells()) {
    odapps::SimspeedCell cell;
    ctx.RunTrials(spec.name, 1, spec.seed, [&cell, &spec](uint64_t seed) {
      cell = spec.run(seed);
      odharness::TrialSample sample;
      sample.value = static_cast<double>(cell.events);
      sample.breakdown["sim_seconds"] = cell.sim_seconds;
      sample.breakdown["checksum"] = static_cast<double>(cell.checksum);
      return sample;
    });
    table.AddRow({spec.name,
                  odutil::Table::Num(static_cast<double>(cell.events), 0),
                  odutil::Table::Num(cell.sim_seconds, 0),
                  std::to_string(cell.checksum)});
  }
  table.Print();
  return 0;
}
