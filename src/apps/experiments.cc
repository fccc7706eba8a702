#include "src/apps/experiments.h"

#include <memory>

#include "src/apps/composite.h"
#include "src/display/zoned.h"
#include "src/util/check.h"

namespace odapps {

void Settle(TestBed& bed) {
  bed.sim().RunUntil(bed.sim().Now() + odsim::SimDuration::Seconds(15));
}

TestBed::Measurement RunVideoExperiment(const VideoClip& clip, VideoTrack track,
                                        double window_scale, bool hw_pm,
                                        uint64_t seed, bool trace) {
  TestBed bed(TestBed::Options{
      .seed = seed, .hw_pm = hw_pm, .trace = trace});
  bed.video().SetConfigOverride(
      VideoPlayer::Config{.track = track, .window_scale = window_scale});
  Settle(bed);
  return bed.Measure([&](odsim::EventFn done) {
    bed.video().PlayClip(clip, std::move(done));
  });
}

TestBed::Measurement RunSpeechExperiment(const Utterance& utterance,
                                         SpeechMode mode, bool reduced_model,
                                         bool hw_pm, uint64_t seed) {
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = hw_pm});
  bed.speech().set_mode(mode);
  bed.speech().SetFidelity(reduced_model ? 0 : bed.speech().fidelity_spec().highest());
  Settle(bed);
  return bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(utterance, std::move(done));
  });
}

TestBed::Measurement RunMapExperiment(const MapObject& map, MapFidelity fidelity,
                                      double think_seconds, bool hw_pm,
                                      uint64_t seed) {
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = hw_pm});
  bed.map().SetFidelity(static_cast<int>(fidelity));
  bed.map().set_think_seconds(think_seconds);
  Settle(bed);
  return bed.Measure([&](odsim::EventFn done) {
    bed.map().ViewMap(map, std::move(done));
  });
}

TestBed::Measurement RunWebExperiment(const WebImage& image, WebFidelity fidelity,
                                      double think_seconds, bool hw_pm,
                                      uint64_t seed, bool trace) {
  TestBed bed(TestBed::Options{
      .seed = seed, .hw_pm = hw_pm, .trace = trace});
  bed.web().SetFidelity(static_cast<int>(fidelity));
  bed.web().set_think_seconds(think_seconds);
  Settle(bed);
  return bed.Measure([&](odsim::EventFn done) {
    bed.web().BrowsePage(image, std::move(done));
  });
}

TestBed::Measurement RunCompositeExperiment(int iterations, bool lowest_fidelity,
                                            bool hw_pm, bool with_video,
                                            uint64_t seed) {
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = hw_pm});
  if (lowest_fidelity) {
    bed.speech().SetFidelity(0);
    bed.video().SetFidelity(0);
    bed.map().SetFidelity(0);
    bed.web().SetFidelity(0);
  }
  Settle(bed);
  CompositeApp composite(&bed.sim(), &bed.speech(), &bed.web(), &bed.map(),
                         &bed.arbiter());
  return bed.Measure([&](odsim::EventFn done) {
    if (with_video) {
      bed.video().PlayLooping(StandardVideoClips()[0]);
    }
    composite.RunIterations(iterations, [&bed, done = std::move(done)]() mutable {
      bed.video().StopLooping();
      done();
    });
  });
}

TestBed::Measurement RunZonedVideoExperiment(const VideoClip& clip,
                                             VideoTrack track, double window_scale,
                                             int zones, uint64_t seed) {
  OD_CHECK(zones == 0 || zones == 4 || zones == 8);
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = true});
  bed.video().SetConfigOverride(
      VideoPlayer::Config{.track = track, .window_scale = window_scale});
  std::unique_ptr<oddisplay::ZonedBacklightController> zoned;
  if (zones != 0) {
    zoned = std::make_unique<oddisplay::ZonedBacklightController>(
        &bed.laptop().display(), zones == 4 ? oddisplay::ZoneLayout::FourZone()
                                            : oddisplay::ZoneLayout::EightZone());
    bed.video().set_zoned_controller(zoned.get());
  }
  Settle(bed);
  return bed.Measure([&](odsim::EventFn done) {
    bed.video().PlayClip(clip, std::move(done));
  });
}

TestBed::Measurement RunZonedMapExperiment(const MapObject& map,
                                           MapFidelity fidelity,
                                           double think_seconds, int zones,
                                           uint64_t seed) {
  OD_CHECK(zones == 0 || zones == 4 || zones == 8);
  TestBed bed(TestBed::Options{.seed = seed, .hw_pm = true});
  bed.map().SetFidelity(static_cast<int>(fidelity));
  bed.map().set_think_seconds(think_seconds);
  std::unique_ptr<oddisplay::ZonedBacklightController> zoned;
  if (zones != 0) {
    zoned = std::make_unique<oddisplay::ZonedBacklightController>(
        &bed.laptop().display(), zones == 4 ? oddisplay::ZoneLayout::FourZone()
                                            : oddisplay::ZoneLayout::EightZone());
    bed.map().set_zoned_controller(zoned.get());
  }
  Settle(bed);
  return bed.Measure([&](odsim::EventFn done) {
    bed.map().ViewMap(map, std::move(done));
  });
}

}  // namespace odapps
