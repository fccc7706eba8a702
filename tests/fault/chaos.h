// Property-based fault-plan generation for the chaos soak.
//
// GenerateChaosPlan derives a random-but-deterministic FaultPlan from a
// seed: a handful of windows of any kind, with uniformly drawn starts,
// durations, and (where applicable) magnitudes inside each kind's valid
// range.  The same seed always yields the same plan, so a soak failure is
// reproducible from its seed alone — the plan's canonical spelling
// (plan.ToString()) is the repro command line.

#ifndef TESTS_FAULT_CHAOS_H_
#define TESTS_FAULT_CHAOS_H_

#include <cstdint>

#include "src/fault/fault_plan.h"

namespace odfault {

// Two to six windows, each 5-60 s long and inside [0, 240 s]: the duration
// is drawn first, then the start from [0, 240 s - duration].  Windows may
// overlap (the injector nests and restores); the plan is ordered by start
// time.
FaultPlan GenerateChaosPlan(uint64_t seed);

// Scenario-derived chaos: instead of purely random windows, start from the
// environment a user-behavior scenario implies (its coverage gaps, as
// Scenario::DerivedFaultPlan() renders them) and layer realistic telemetry
// noise on top — one to three short (5-30 s) sample dropouts, stale spans,
// and gauge scale wobbles inside [0, horizon_seconds], the wobble held
// within 2% of nominal.  That band sits well under the drift sentinel's
// divergence threshold, so any drift episode a soak run records under
// such a plan is a false positive by construction; the soak bounds their
// rate.
FaultPlan GenerateScenarioChaosPlan(uint64_t seed, const FaultPlan& environment,
                                    double horizon_seconds = 240.0);

}  // namespace odfault

#endif  // TESTS_FAULT_CHAOS_H_
