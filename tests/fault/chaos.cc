#include "tests/fault/chaos.h"

#include <algorithm>
#include <cmath>

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

// GenerateChaosPlan's window count, horizon and window lengths.
constexpr int kMinEvents = 2;
constexpr int kMaxEvents = 6;
constexpr double kHorizonSeconds = 240.0;
constexpr double kMinDurationSeconds = 5.0;
constexpr double kMaxDurationSeconds = 60.0;

// GenerateScenarioChaosPlan's noise-window count and lengths.
constexpr int kMinNoiseEvents = 1;
constexpr int kMaxNoiseEvents = 3;
constexpr double kMinNoiseSeconds = 5.0;
constexpr double kMaxNoiseSeconds = 30.0;
// Gauge/ramp noise magnitudes are drawn from [1 - band, 1 + band].  The
// sentinel tolerates 10% gauge/learned divergence and the learned model
// itself runs a few percent off under busy scenarios, so +-2% is the
// realistic wobble that must NOT compound into a drift verdict.
constexpr double kGaugeNoiseBand = 0.02;

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

FaultPlan GenerateChaosPlan(uint64_t seed) {
  odutil::Rng rng(seed ^ 0xc4a05ULL);
  FaultPlan plan;
  int events = rng.UniformInt(kMinEvents, kMaxEvents);
  for (int i = 0; i < events; ++i) {
    FaultEvent event;
    event.kind = kAllKinds[rng.UniformInt(
        0, static_cast<int>(std::size(kAllKinds)) - 1)];
    // Duration first, then a start that keeps the whole window inside the
    // horizon — a window past the horizon is dead weight the run never
    // replays against.
    event.duration = odsim::SimDuration::Seconds(
        Round3(rng.Uniform(kMinDurationSeconds, kMaxDurationSeconds)));
    double latest_start =
        std::max(0.0, kHorizonSeconds - event.duration.seconds());
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
                                    double horizon_seconds) {
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
  int events = rng.UniformInt(kMinNoiseEvents, kMaxNoiseEvents);
  for (int i = 0; i < events; ++i) {
    FaultEvent event;
    event.kind = kNoiseKinds[rng.UniformInt(
        0, static_cast<int>(std::size(kNoiseKinds)) - 1)];
    event.duration = odsim::SimDuration::Seconds(
        Round3(rng.Uniform(kMinNoiseSeconds, kMaxNoiseSeconds)));
    double latest_start =
        std::max(0.0, horizon_seconds - event.duration.seconds());
    event.at =
        odsim::SimDuration::Seconds(Round3(rng.Uniform(0.0, latest_start)));
    if (event.kind == FaultKind::kGaugeDrift ||
        event.kind == FaultKind::kGaugeRamp) {
      event.magnitude =
          Round3(rng.Uniform(1.0 - kGaugeNoiseBand, 1.0 + kGaugeNoiseBand));
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
