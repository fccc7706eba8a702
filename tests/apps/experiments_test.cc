#include "src/apps/experiments.h"

#include <gtest/gtest.h>

namespace odapps {
namespace {

TEST(ExperimentsTest, SettleReachesRestingStates) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  Settle(bed);
  EXPECT_EQ(bed.laptop().disk().disk_state(), odpower::DiskState::kStandby);
  EXPECT_EQ(bed.laptop().wavelan().wavelan_state(), odpower::WaveLanState::kStandby);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

TEST(ExperimentsTest, RunnersAreDeterministicPerSeed) {
  double a = RunMapExperiment(StandardMaps()[1], MapFidelity::kFull, 5.0, true, 7)
                 .joules;
  double b = RunMapExperiment(StandardMaps()[1], MapFidelity::kFull, 5.0, true, 7)
                 .joules;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(ExperimentsTest, SeedsPerturbMeasurements) {
  double a = RunMapExperiment(StandardMaps()[1], MapFidelity::kFull, 5.0, true, 7)
                 .joules;
  double b = RunMapExperiment(StandardMaps()[1], MapFidelity::kFull, 5.0, true, 8)
                 .joules;
  EXPECT_NE(a, b);
  // ...but only slightly: within a couple of percent.
  EXPECT_NEAR(a, b, 0.03 * a);
}

TEST(ExperimentsTest, ZonedVideoNeverExceedsUnzoned) {
  const VideoClip& clip = StandardVideoClips()[2];
  double none = RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 0, 3)
                    .joules;
  double four = RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 4, 3)
                    .joules;
  double eight = RunZonedVideoExperiment(clip, VideoTrack::kBaseline, 1.0, 8, 3)
                     .joules;
  EXPECT_LE(four, none);
  EXPECT_LE(eight, four + 0.01 * none);
}

TEST(ExperimentsTest, CompositeExperimentRespectsVideoFlag) {
  auto alone = RunCompositeExperiment(2, false, true, false, 11);
  auto with_video = RunCompositeExperiment(2, false, true, true, 11);
  EXPECT_DOUBLE_EQ(alone.Process("xanim"), 0.0);
  EXPECT_GT(with_video.Process("xanim"), 0.0);
}

TEST(ExperimentsTest, MeasurementDurationsAreConsistent) {
  // Speech experiment wall time ~ (frontend + local rtf) * utterance length.
  const Utterance& u = StandardUtterances()[2];  // 4.5 s.
  auto m = RunSpeechExperiment(u, SpeechMode::kLocal, false, true, 5);
  EXPECT_NEAR(m.seconds, (0.2 + 1.3) * 4.5, 0.5);
}

}  // namespace
}  // namespace odapps
