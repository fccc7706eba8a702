#include "src/fault/chaos.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace odfault {
namespace {

// All kinds the generator may draw.  Keep in sync with FaultKind; the
// round-trip test in tests/fault covers every entry.
constexpr FaultKind kAllKinds[] = {
    FaultKind::kBandwidth,    FaultKind::kOutage,
    FaultKind::kLossBurst,    FaultKind::kServerStall,
    FaultKind::kDiskLatency,  FaultKind::kSampleDropout,
    FaultKind::kStaleTelemetry, FaultKind::kNanTelemetry,
    FaultKind::kGaugeDrift,   FaultKind::kGaugeRamp,
};

// Round to 3 decimals so the plan's canonical spelling (its repro string)
// stays short; the rendering itself is exact at any precision.
double Round3(double value) { return std::round(value * 1000.0) / 1000.0; }

double DrawMagnitude(FaultKind kind, odutil::Rng& rng) {
  switch (kind) {
    case FaultKind::kBandwidth:
      return Round3(rng.Uniform(0.05, 0.5));  // Keep 5-50% of nominal.
    case FaultKind::kLossBurst:
      return Round3(rng.Uniform(0.1, 0.6));
    case FaultKind::kDiskLatency:
      return Round3(rng.Uniform(2.0, 16.0));
    case FaultKind::kGaugeDrift:
      // Both under- and over-reading gauges, up to 4x off.
      return Round3(rng.Uniform(0.25, 4.0));
    case FaultKind::kGaugeRamp:
      // Creeping miscalibration: the scale drifts linearly toward this
      // endpoint over the window.  Kept sub-plausible on the high side —
      // the whole point of the ramp is that no single reading trips the
      // validator.
      return Round3(rng.Uniform(0.5, 2.0));
    default:
      return 0.0;
  }
}

}  // namespace

FaultPlan GenerateChaosPlan(uint64_t seed, const ChaosPlanConfig& config) {
  OD_CHECK(config.min_events >= 0 && config.max_events >= config.min_events);
  OD_CHECK(config.min_duration_seconds > 0.0 &&
           config.max_duration_seconds >= config.min_duration_seconds);
  odutil::Rng rng(seed ^ 0xc4a05ULL);
  FaultPlan plan;
  int events = rng.UniformInt(config.min_events, config.max_events);
  for (int i = 0; i < events; ++i) {
    FaultEvent event;
    event.kind = kAllKinds[rng.UniformInt(
        0, static_cast<int>(std::size(kAllKinds)) - 1)];
    // Duration first, then a start that keeps the whole window inside the
    // horizon — a window past the horizon is dead weight the run never
    // replays against.
    event.duration = odsim::SimDuration::Seconds(Round3(rng.Uniform(
        config.min_duration_seconds, config.max_duration_seconds)));
    double latest_start =
        std::max(0.0, config.horizon_seconds - event.duration.seconds());
    event.at =
        odsim::SimDuration::Seconds(Round3(rng.Uniform(0.0, latest_start)));
    event.magnitude = DrawMagnitude(event.kind, rng);
    plan.events.push_back(event);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

FaultPlan GenerateScenarioChaosPlan(uint64_t seed,
                                    const FaultPlan& environment,
                                    const ScenarioChaosConfig& config) {
  OD_CHECK(config.min_noise_events >= 0 &&
           config.max_noise_events >= config.min_noise_events);
  OD_CHECK(config.min_duration_seconds > 0.0 &&
           config.max_duration_seconds >= config.min_duration_seconds);
  OD_CHECK(config.gauge_noise_band > 0.0 && config.gauge_noise_band < 1.0);
  // A distinct stream from the random generator: the same seed must not
  // yield correlated random-mode and scenario-mode plans.
  odutil::Rng rng(seed ^ 0x5c40c5ULL);
  FaultPlan plan = environment;
  constexpr FaultKind kNoiseKinds[] = {
      FaultKind::kSampleDropout,
      FaultKind::kStaleTelemetry,
      FaultKind::kGaugeDrift,
      FaultKind::kGaugeRamp,
  };
  int events = rng.UniformInt(config.min_noise_events, config.max_noise_events);
  for (int i = 0; i < events; ++i) {
    FaultEvent event;
    event.kind = kNoiseKinds[rng.UniformInt(
        0, static_cast<int>(std::size(kNoiseKinds)) - 1)];
    event.duration = odsim::SimDuration::Seconds(Round3(rng.Uniform(
        config.min_duration_seconds, config.max_duration_seconds)));
    double latest_start =
        std::max(0.0, config.horizon_seconds - event.duration.seconds());
    event.at =
        odsim::SimDuration::Seconds(Round3(rng.Uniform(0.0, latest_start)));
    if (event.kind == FaultKind::kGaugeDrift ||
        event.kind == FaultKind::kGaugeRamp) {
      event.magnitude = Round3(rng.Uniform(1.0 - config.gauge_noise_band,
                                           1.0 + config.gauge_noise_band));
    }
    plan.events.push_back(event);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

}  // namespace odfault
