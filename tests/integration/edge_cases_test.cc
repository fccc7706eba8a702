// Edge cases across module boundaries.

#include <gtest/gtest.h>

#include "src/apps/testbed.h"
#include "src/display/zoned.h"
#include "src/powerscope/profiler.h"

namespace {

TEST(EdgeCaseTest, EmptyProfileFormats) {
  // Correlating a profiler that never sampled yields an empty but printable
  // profile.
  odapps::TestBed bed;
  odscope::Profiler profiler(&bed.sim(), &bed.laptop().machine());
  profiler.Start();
  profiler.Stop();  // No time elapsed: zero or one sample.
  odscope::EnergyProfile profile = profiler.Correlate();
  std::string out = profile.Format();
  EXPECT_NE(out.find("Process"), std::string::npos);
}

TEST(EdgeCaseTest, ZonesPartitionTheScreen) {
  // Zone rectangles tile the unit square exactly: areas sum to 1 and no two
  // zones overlap.
  for (auto layout :
       {oddisplay::ZoneLayout(1, 1), oddisplay::ZoneLayout::FourZone(),
        oddisplay::ZoneLayout::EightZone(), oddisplay::ZoneLayout(5, 3)}) {
    double area = 0.0;
    for (int i = 0; i < layout.zone_count(); ++i) {
      oddisplay::Rect zone = layout.ZoneRect(i);
      area += zone.w * zone.h;
      for (int j = i + 1; j < layout.zone_count(); ++j) {
        EXPECT_FALSE(zone.Intersects(layout.ZoneRect(j)))
            << "zones " << i << "," << j;
      }
    }
    EXPECT_NEAR(area, 1.0, 1e-9);
  }
}

TEST(EdgeCaseTest, HardwarePmToggleMidRun) {
  // Flipping power management during playback must not wedge anything.
  odapps::TestBed bed;
  bool done = false;
  bed.video().PlaySegment(odapps::StandardVideoClips()[0],
                          odsim::SimDuration::Seconds(20), [&] { done = true; });
  bed.sim().RunUntil(odsim::SimTime::Seconds(5));
  bed.SetHardwarePm(true);
  bed.sim().RunUntil(odsim::SimTime::Seconds(10));
  bed.SetHardwarePm(false);
  bed.sim().RunUntil(odsim::SimTime::Seconds(40));
  EXPECT_TRUE(done);
  // Display stays bright afterwards (no PM, nothing held).
  EXPECT_EQ(bed.laptop().display().display_state(),
            odpower::DisplayState::kBright);
}

TEST(EdgeCaseTest, ZeroThinkTimeEverywhere) {
  odapps::TestBed bed;
  bed.map().set_think_seconds(0.0);
  bed.web().set_think_seconds(0.0);
  int completed = 0;
  bed.map().ViewMap(odapps::StandardMaps()[1], [&] {
    ++completed;
    bed.web().BrowsePage(odapps::StandardWebImages()[3], [&] { ++completed; });
  });
  bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_EQ(completed, 2);
}

TEST(EdgeCaseTest, MeasureForZeroDuration) {
  odapps::TestBed bed;
  auto m = bed.MeasureFor(odsim::SimDuration::Zero());
  EXPECT_DOUBLE_EQ(m.joules, 0.0);
  EXPECT_DOUBLE_EQ(m.seconds, 0.0);
  EXPECT_DOUBLE_EQ(m.average_watts(), 0.0);
}

TEST(EdgeCaseTest, BackToBackRecognitions) {
  // The speech recognizer's busy flag resets correctly across dozens of
  // sequential utterances in all three modes.
  odapps::TestBed bed;
  int completed = 0;
  std::function<void(int)> chain = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    bed.speech().set_mode(remaining % 3 == 0   ? odapps::SpeechMode::kLocal
                          : remaining % 3 == 1 ? odapps::SpeechMode::kRemote
                                               : odapps::SpeechMode::kHybrid);
    bed.speech().Recognize(
        odapps::StandardUtterances()[static_cast<size_t>(remaining % 4)],
        [&, remaining] {
          ++completed;
          chain(remaining - 1);
        });
  };
  chain(30);
  bed.sim().RunUntil(odsim::SimTime::Seconds(1200));
  EXPECT_EQ(completed, 30);
  EXPECT_FALSE(bed.speech().busy());
}

TEST(EdgeCaseTest, FidelityChangeDuringFetchAppliesNextFetch) {
  // Changing map fidelity mid-fetch must not corrupt the in-flight request.
  odapps::TestBed bed;
  bool done = false;
  bed.map().ViewMap(odapps::StandardMaps()[0], [&] { done = true; });
  bed.sim().RunUntil(odsim::SimTime::Seconds(1));
  bed.map().SetFidelity(0);
  bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_TRUE(done);
  EXPECT_EQ(bed.map().map_fidelity(), odapps::MapFidelity::kCroppedSecondary);
}

TEST(EdgeCaseTest, VideoOverrideWithRateAndDim) {
  odapps::TestBed bed(odapps::TestBed::Options{.seed = 1, .hw_pm = true});
  odapps::VideoPlayer::Config config;
  config.track = odapps::VideoTrack::kPremiereC;
  config.window_scale = 0.25;
  config.rate_scale = 0.5;
  config.dim_display = true;
  bed.video().SetConfigOverride(config);
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.video().PlaySegment(odapps::StandardVideoClips()[0],
                            odsim::SimDuration::Seconds(20), std::move(done));
  });
  // Display dim throughout: display draw is the dim power.
  EXPECT_NEAR(m.Component("Display") / m.seconds, 1.95, 0.05);
}

}  // namespace
