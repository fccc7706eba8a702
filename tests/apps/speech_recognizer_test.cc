#include "src/apps/speech_recognizer.h"

#include <gtest/gtest.h>

#include "src/apps/testbed.h"

namespace odapps {
namespace {

double RecognizeJoules(SpeechMode mode, bool reduced, bool hw_pm) {
  TestBed bed(TestBed::Options{.seed = 3, .hw_pm = hw_pm});
  bed.speech().set_mode(mode);
  bed.speech().SetFidelity(reduced ? 0 : 1);
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));  // Settle devices.
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(StandardUtterances()[2], std::move(done));
  });
  return m.joules;
}

TEST(SpeechTest, LadderHasTwoLevels) {
  TestBed bed;
  EXPECT_EQ(bed.speech().fidelity_spec().count(), 2);
  EXPECT_FALSE(bed.speech().reduced_model());
  bed.speech().SetFidelity(0);
  EXPECT_TRUE(bed.speech().reduced_model());
}

TEST(SpeechTest, BusyDuringRecognition) {
  TestBed bed;
  bool done = false;
  bed.speech().Recognize(StandardUtterances()[0], [&] { done = true; });
  EXPECT_TRUE(bed.speech().busy());
  bed.sim().RunUntil(odsim::SimTime::Seconds(60));
  EXPECT_TRUE(done);
  EXPECT_FALSE(bed.speech().busy());
}

TEST(SpeechTest, LocalRecognitionUsesNoNetwork) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(StandardUtterances()[1], std::move(done));
  });
  // The interface never leaves standby: WaveLAN energy is standby draw only.
  double wavelan = m.Component("WaveLAN");
  EXPECT_NEAR(wavelan / m.seconds, 0.18, 1e-6);
}

TEST(SpeechTest, RemoteRecognitionTransfersWaveform) {
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.speech().set_mode(SpeechMode::kRemote);
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(StandardUtterances()[1], std::move(done));
  });
  EXPECT_GT(m.Component("WaveLAN") / m.seconds, 0.2);
}

TEST(SpeechTest, ReducedModelIsFasterAndCheaper) {
  double full = RecognizeJoules(SpeechMode::kLocal, false, true);
  double reduced = RecognizeJoules(SpeechMode::kLocal, true, true);
  EXPECT_LT(reduced, full);
}

TEST(SpeechTest, RemoteCheaperThanLocalUnderPm) {
  double local = RecognizeJoules(SpeechMode::kLocal, false, true);
  double remote = RecognizeJoules(SpeechMode::kRemote, false, true);
  EXPECT_LT(remote, local);
}

TEST(SpeechTest, HybridCheapestFullFidelityStrategy) {
  // "Hybrid recognition offers slightly greater energy savings than remote."
  double remote = RecognizeJoules(SpeechMode::kRemote, false, true);
  double hybrid = RecognizeJoules(SpeechMode::kHybrid, false, true);
  EXPECT_LT(hybrid, remote);
}

TEST(SpeechTest, RemoteIdleDominatesClientEnergy) {
  // "Most of the energy consumed by the client in remote recognition occurs
  // with the processor idle."
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.speech().set_mode(SpeechMode::kRemote);
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(StandardUtterances()[3], std::move(done));
  });
  EXPECT_GT(m.Process("Idle"), 0.4 * m.joules);
}

TEST(SpeechTest, LocalJanusDominatesClientEnergy) {
  // "Almost all the energy in this case is consumed by Janus."
  TestBed bed(TestBed::Options{.seed = 1, .hw_pm = true});
  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  auto m = bed.Measure([&](odsim::EventFn done) {
    bed.speech().Recognize(StandardUtterances()[3], std::move(done));
  });
  EXPECT_GT(m.Process("Janus"), 0.8 * m.joules);
}

TEST(SpeechTest, LongerUtterancesCostMore) {
  TestBed bed;
  double previous = 0.0;
  for (const Utterance& u : StandardUtterances()) {
    TestBed fresh;
    auto m = fresh.Measure([&](odsim::EventFn done) {
      fresh.speech().Recognize(u, std::move(done));
    });
    EXPECT_GT(m.joules, previous);
    previous = m.joules;
  }
}

}  // namespace
}  // namespace odapps
