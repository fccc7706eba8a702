#include "src/apps/video_player.h"

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

TEST(VideoPlayerTest, LadderHasFiveLevels) {
  TestBed bed;
  EXPECT_EQ(bed.video().fidelity_spec().count(), 5);
  EXPECT_TRUE(bed.video().AtHighestFidelity());
}

TEST(VideoPlayerTest, LadderMapsToConfigs) {
  TestBed bed;
  VideoPlayer& video = bed.video();
  video.SetFidelity(4);
  EXPECT_EQ(video.EffectiveConfig().track, VideoTrack::kBaseline);
  video.SetFidelity(3);
  EXPECT_EQ(video.EffectiveConfig().track, VideoTrack::kPremiereB);
  video.SetFidelity(2);
  EXPECT_EQ(video.EffectiveConfig().track, VideoTrack::kPremiereC);
  video.SetFidelity(1);
  EXPECT_DOUBLE_EQ(video.EffectiveConfig().window_scale, 0.5);
  video.SetFidelity(0);
  EXPECT_TRUE(video.EffectiveConfig().dim_display);
  EXPECT_DOUBLE_EQ(video.EffectiveConfig().rate_scale, 0.5);
}

TEST(VideoPlayerTest, OverridePinsConfig) {
  TestBed bed;
  VideoPlayer& video = bed.video();
  video.SetConfigOverride(VideoPlayer::Config{VideoTrack::kPremiereC, 0.5});
  video.SetFidelity(4);  // Ladder changes must not leak through.
  EXPECT_EQ(video.EffectiveConfig().track, VideoTrack::kPremiereC);
}

TEST(VideoPlayerTest, PlaybackTakesClipDuration) {
  TestBed bed;
  const VideoClip& clip = StandardVideoClips()[0];
  odsim::SimTime done_at;
  bed.video().PlayClip(clip, [&] { done_at = bed.sim().Now(); });
  EXPECT_TRUE(bed.video().playing());
  bed.sim().RunUntil(odsim::SimTime::Seconds(clip.duration_seconds + 10));
  EXPECT_FALSE(bed.video().playing());
  EXPECT_NEAR(done_at.seconds(), clip.duration_seconds, 1.0);
}

TEST(VideoPlayerTest, PlaySegmentStopsEarly) {
  TestBed bed;
  odsim::SimTime done_at;
  bed.video().PlaySegment(StandardVideoClips()[0], odsim::SimDuration::Seconds(10),
                          [&] { done_at = bed.sim().Now(); });
  bed.sim().RunUntil(odsim::SimTime::Seconds(30));
  EXPECT_NEAR(done_at.seconds(), 10.0, 0.6);
}

TEST(VideoPlayerTest, PlaybackHoldsDisplay) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
  bed.video().PlaySegment(StandardVideoClips()[0], odsim::SimDuration::Seconds(5),
                          nullptr);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kBright);
  bed.sim().RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

TEST(VideoPlayerTest, AmbientFidelityDimsDisplay) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.video().SetFidelity(0);
  bed.video().PlaySegment(StandardVideoClips()[0], odsim::SimDuration::Seconds(5),
                          nullptr);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kDim);
  bed.sim().RunUntil(odsim::SimTime::Seconds(10));
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kOff);
}

TEST(VideoPlayerTest, MidPlaybackFidelityChangeRetunesDisplay) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.video().PlaySegment(StandardVideoClips()[0], odsim::SimDuration::Seconds(20),
                          nullptr);
  bed.sim().RunUntil(odsim::SimTime::Seconds(5));
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kBright);
  bed.video().SetFidelity(0);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kDim);
  bed.video().SetFidelity(4);
  EXPECT_EQ(bed.laptop().display().display_state(), odpower::DisplayState::kBright);
}

TEST(VideoPlayerTest, LoopingRestartsUntilStopped) {
  TestBed bed;
  const VideoClip& clip = StandardVideoClips()[0];  // 127 s.
  bed.video().PlayLooping(clip);
  bed.sim().RunUntil(odsim::SimTime::Seconds(300));
  EXPECT_TRUE(bed.video().playing());
  bed.video().StopLooping();
  bed.sim().RunUntil(odsim::SimTime::Seconds(400));
  EXPECT_FALSE(bed.video().playing());
}

TEST(VideoPlayerTest, NoFramesDroppedWhenAlone) {
  TestBed bed;
  bed.video().PlaySegment(StandardVideoClips()[0], odsim::SimDuration::Seconds(30),
                          nullptr);
  bed.sim().RunUntil(odsim::SimTime::Seconds(40));
  EXPECT_EQ(bed.video().chunks_dropped(), 0);
  EXPECT_GT(bed.video().chunks_played(), 0);
}

TEST(VideoPlayerTest, DropsFramesUnderForeignCpuLoad) {
  TestBed bed;
  bed.video().PlaySegment(StandardVideoClips()[0], odsim::SimDuration::Seconds(30),
                          nullptr);
  // A long-running foreign computation contends for the CPU.
  odsim::ProcessId pid = bed.sim().processes().RegisterProcess("hog");
  odsim::ProcedureId proc = bed.sim().processes().RegisterProcedure("_hog");
  bed.sim().SubmitWork(pid, proc, odsim::SimDuration::Seconds(20), nullptr);
  bed.sim().RunUntil(odsim::SimTime::Seconds(40));
  EXPECT_GT(bed.video().chunks_dropped(), 0);
}

TEST(VideoPlayerTest, WindowGeometryFollowsConfig) {
  TestBed bed;
  bed.video().SetConfigOverride(VideoPlayer::Config{VideoTrack::kBaseline, 0.5});
  oddisplay::Rect window = bed.video().window();
  EXPECT_DOUBLE_EQ(window.w, VideoWindow(0.5).w);
}

TEST(VideoPlayerTest, LowerFidelityUsesLessEnergy) {
  const VideoClip& clip = StandardVideoClips()[1];
  double joules[5];
  for (int level = 0; level < 5; ++level) {
    TestBed bed;
    bed.video().SetFidelity(level);
    auto m = bed.Measure([&](odsim::EventFn done) {
      bed.video().PlaySegment(clip, odsim::SimDuration::Seconds(30),
                              std::move(done));
    });
    joules[level] = m.joules;
  }
  for (int level = 1; level < 5; ++level) {
    EXPECT_LT(joules[level - 1], joules[level]) << "level " << level;
  }
}

}  // namespace
}  // namespace odapps
