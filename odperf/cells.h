// Per-layer host-cost cells for the traced run.  Each cell drives one
// layer's public API with a load shaped like the workload it reports for
// (timer population and periods, monitor rates, the fleet's key stream) and
// reports host nanoseconds per operation as the median over a few batches.
// Every batch is a span.  The cells are diagnostics for attributing a
// change in unit_ref_ratio to a layer, not gates.

#ifndef ODPERF_CELLS_H_
#define ODPERF_CELLS_H_

#include <map>
#include <string>

#include "odperf/trace.h"
#include "odperf/workloads.h"

namespace odperf {

// Runs every cell for `plan`'s workload and returns its metrics by name
// (sim.ns_per_event, powerscope.samples, powerscope.ns_per_sample,
// energy.ns_per_sample, power.ns_per_change, serve.ns_per_request,
// net.ns_per_rpc, scenario.us_per_parse, fault.us_per_parse).
std::map<std::string, double> RunCells(const Plan& plan, Tracer* tracer,
                                       int parent);

// Mean absolute error, in percent, of the simulator's energy ratios against
// the paper's targets (the ones the calibrate experiment checks).
double PaperErrorPct(Tracer* tracer, int parent);

}  // namespace odperf

#endif  // ODPERF_CELLS_H_
