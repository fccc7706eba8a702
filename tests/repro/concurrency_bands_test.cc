// Reproduction of Figure 15 / Section 3.7 (concurrency).  The paper's
// qualitative claims, which we assert:
//   - adding a background video costs more energy in every configuration;
//   - the marginal cost is smallest at lowest fidelity (+18% in the paper —
//     background power is amortized across applications);
//   - the marginal cost under hardware-only PM exceeds the baseline's (the
//     display can no longer sleep during speech segments);
//   - concurrency enhances the benefit of lowering fidelity: the combined
//     ratio under concurrency beats the product of the individual ratios.
// Our marginal costs are lower than the paper's +53%/+64% for the managed
// cases (our video sheds more load under contention); EXPERIMENTS.md records
// the measured values.

#include <gtest/gtest.h>

#include "src/apps/experiments.h"
#include "tests/repro/artifact_replay.h"

namespace odapps {
namespace {

struct ConcurrencyResults {
  double base_alone, base_video;
  double pm_alone, pm_video;
  double low_alone, low_video;
};

// With ODBENCH_ARTIFACT_DIR set, the six energies replay the recorded
// fig15_concurrency artifact ("<case>/alone" and "<case>/with_video");
// otherwise each is simulated once per test binary.
const ConcurrencyResults& Results() {
  static const ConcurrencyResults results = [] {
    const auto& replay = odharness::ArtifactReplay::Env();
    constexpr char kExp[] = "fig15_concurrency";
    ConcurrencyResults r;
    if (auto base_alone = replay.SetMean(kExp, "Baseline/alone")) {
      r.base_alone = *base_alone;
      r.base_video = replay.SetMean(kExp, "Baseline/with_video").value();
      r.pm_alone =
          replay.SetMean(kExp, "Hardware-Only Power Mgmt./alone").value();
      r.pm_video =
          replay.SetMean(kExp, "Hardware-Only Power Mgmt./with_video").value();
      r.low_alone = replay.SetMean(kExp, "Lowest Fidelity/alone").value();
      r.low_video = replay.SetMean(kExp, "Lowest Fidelity/with_video").value();
      return r;
    }
    r.base_alone = RunCompositeExperiment(6, false, false, false, 61).joules;
    r.base_video = RunCompositeExperiment(6, false, false, true, 61).joules;
    r.pm_alone = RunCompositeExperiment(6, false, true, false, 61).joules;
    r.pm_video = RunCompositeExperiment(6, false, true, true, 61).joules;
    r.low_alone = RunCompositeExperiment(6, true, true, false, 61).joules;
    r.low_video = RunCompositeExperiment(6, true, true, true, 61).joules;
    return r;
  }();
  return results;
}

TEST(ConcurrencyTest, VideoAlwaysAddsEnergy) {
  const ConcurrencyResults& r = Results();
  EXPECT_GT(r.base_video, r.base_alone);
  EXPECT_GT(r.pm_video, r.pm_alone);
  EXPECT_GT(r.low_video, r.low_alone);
}

TEST(ConcurrencyTest, LowestFidelityHasSmallestMarginalCost) {
  const ConcurrencyResults& r = Results();
  double base_add = r.base_video / r.base_alone - 1.0;
  double pm_add = r.pm_video / r.pm_alone - 1.0;
  double low_add = r.low_video / r.low_alone - 1.0;
  EXPECT_LT(low_add, base_add);
  EXPECT_LT(low_add, pm_add);
  // Paper: +18%; we assert 5-30%.
  EXPECT_GT(low_add, 0.05);
  EXPECT_LT(low_add, 0.30);
}

TEST(ConcurrencyTest, PmMarginalCostExceedsBaseline) {
  // Under PM the display sleeps during speech when the composite runs alone;
  // the background video forfeits that, so concurrency costs more.
  const ConcurrencyResults& r = Results();
  double base_add = r.base_video / r.base_alone - 1.0;
  double pm_add = r.pm_video / r.pm_alone - 1.0;
  EXPECT_GT(pm_add, base_add);
}

TEST(ConcurrencyTest, ConcurrencyEnhancesFidelityBenefit) {
  // Section 3.7: under concurrency the lowest-fidelity/hardware-only ratio
  // (0.65 in the paper) beats the expected product of the isolated ratios
  // (0.84 * 0.84 = 0.71) — concurrency magnifies the benefit of adaptation.
  const ConcurrencyResults& r = Results();
  double concurrent_ratio = r.low_video / r.pm_video;
  double isolated_ratio = r.low_alone / r.pm_alone;
  EXPECT_LT(concurrent_ratio, isolated_ratio);
  EXPECT_GT(concurrent_ratio, 0.35);
  EXPECT_LT(concurrent_ratio, 0.75);
}

TEST(ConcurrencyTest, HardwarePmStillHelpsUnderConcurrency) {
  const ConcurrencyResults& r = Results();
  EXPECT_LT(r.pm_video, r.base_video);
}

TEST(ConcurrencyTest, BackgroundVideoDropsFramesRatherThanStretching) {
  // The concurrent run must not take dramatically longer than the composite
  // alone — the video sheds load instead of starving the foreground.
  auto alone = RunCompositeExperiment(6, false, false, false, 67);
  auto with_video = RunCompositeExperiment(6, false, false, true, 67);
  EXPECT_LT(with_video.seconds, 1.25 * alone.seconds);
}

}  // namespace
}  // namespace odapps
