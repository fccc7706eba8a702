// Property test: PowerScope's statistical sampling must agree with the
// analytic energy integrator, for every application workload.  This is the
// simulation's core soundness check — the two accountings share no code.

#include <gtest/gtest.h>

#include "src/apps/testbed.h"
#include "src/powerscope/profiler.h"

namespace odapps {
namespace {

enum class Workload {
  kVideo,
  kSpeechLocal,
  kSpeechRemote,
  kMap,
  kWeb,
};

struct Case {
  Workload workload;
  bool hw_pm;
};

class PowerScopeAgreementTest : public ::testing::TestWithParam<Case> {};

TEST_P(PowerScopeAgreementTest, SampledEnergyMatchesAnalytic) {
  const Case& c = GetParam();
  TestBed bed(TestBed::Options{.seed = 21, .hw_pm = c.hw_pm});
  odscope::MultimeterConfig config;
  config.noise_amps = 0.0;  // Isolate sampling error from measurement noise.
  odscope::Profiler profiler(&bed.sim(), &bed.laptop().machine(), config);

  bed.sim().RunUntil(odsim::SimTime::Seconds(15));
  profiler.Start();
  auto m = bed.Measure([&](odsim::EventFn done) {
    switch (c.workload) {
      case Workload::kVideo:
        bed.video().PlaySegment(StandardVideoClips()[0],
                                odsim::SimDuration::Seconds(20), std::move(done));
        break;
      case Workload::kSpeechLocal:
        bed.speech().Recognize(StandardUtterances()[2], std::move(done));
        break;
      case Workload::kSpeechRemote:
        bed.speech().set_mode(SpeechMode::kRemote);
        bed.speech().Recognize(StandardUtterances()[2], std::move(done));
        break;
      case Workload::kMap:
        bed.map().ViewMap(StandardMaps()[0], std::move(done));
        break;
      case Workload::kWeb:
        bed.web().BrowsePage(StandardWebImages()[0], std::move(done));
        break;
    }
  });
  profiler.Stop();

  double sampled = profiler.SampledJoules();
  // 600 Hz sampling against sub-second state changes: within 2%.
  EXPECT_NEAR(sampled, m.joules, 0.02 * m.joules + 0.1);

  // Correlated per-process attribution must also reconcile with analytic
  // per-process attribution for the top consumers.
  odscope::EnergyProfile profile = profiler.Correlate();
  for (const auto& [name, joules] : m.by_process) {
    if (joules < 0.05 * m.joules) {
      continue;  // Sampling error swamps tiny shares.
    }
    EXPECT_NEAR(profile.ProcessJoules(name), joules, 0.1 * joules + 0.5)
        << "process " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PowerScopeAgreementTest,
    ::testing::Values(Case{Workload::kVideo, false}, Case{Workload::kVideo, true},
                      Case{Workload::kSpeechLocal, false},
                      Case{Workload::kSpeechLocal, true},
                      Case{Workload::kSpeechRemote, true},
                      Case{Workload::kMap, false}, Case{Workload::kMap, true},
                      Case{Workload::kWeb, false}, Case{Workload::kWeb, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name;
      switch (info.param.workload) {
        case Workload::kVideo:
          name = "Video";
          break;
        case Workload::kSpeechLocal:
          name = "SpeechLocal";
          break;
        case Workload::kSpeechRemote:
          name = "SpeechRemote";
          break;
        case Workload::kMap:
          name = "Map";
          break;
        case Workload::kWeb:
          name = "Web";
          break;
      }
      return name + (info.param.hw_pm ? "Pm" : "NoPm");
    });

}  // namespace
}  // namespace odapps
