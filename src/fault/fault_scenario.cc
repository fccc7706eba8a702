#include "src/fault/fault_scenario.h"

#include <algorithm>
#include <functional>

#include "src/apps/data_objects.h"
#include "src/apps/experiments.h"
#include "src/apps/testbed.h"
#include "src/net/bandwidth_monitor.h"
#include "src/odyssey/warden.h"

namespace odfault {
namespace {

// Think time between pages, maps and utterances; short so the loops
// exercise the network often enough to meet faults.
constexpr double kThinkSeconds = 2.0;

int WardenFailures(odyssey::Viceroy& viceroy, const char* data_type) {
  odyssey::Warden* warden = viceroy.FindWarden(data_type);
  return warden == nullptr ? 0 : warden->failed_fetches();
}

}  // namespace

FaultScenarioResult RunFaultScenario(const FaultScenarioOptions& options) {
  odapps::TestBed bed(odapps::TestBed::Options{
      .seed = options.seed, .hw_pm = true, .trace = options.trace});

  // Bounded retransmission and a per-call deadline: the liveness half of
  // graceful degradation.  Without the deadline an outage would park every
  // fetch on the dead link's queue forever.
  odapps::DegradedClient degraded(bed, options.seed);

  bed.web().set_think_seconds(kThinkSeconds);
  bed.map().set_think_seconds(kThinkSeconds);

  // Bandwidth expectations drive ordinary adaptation when the channel
  // merely degrades; the health callback drives the clamp when it dies.
  odnet::BandwidthMonitor monitor(&bed.sim(), &bed.link());
  monitor.set_callback([&bed](odsim::SimTime, double bps) {
    bed.viceroy().NotifyResourceLevel(odyssey::ResourceId::kNetworkBandwidth, bps);
  });
  monitor.set_health_callback(
      [&bed](odsim::SimTime, const odnet::BandwidthEstimate& estimate) {
        bed.viceroy().NotifyLinkHealth(estimate);
      });
  for (odyssey::AdaptiveApplication* app : bed.viceroy().applications()) {
    bed.viceroy().RegisterExpectation(
        app, odyssey::ResourceId::kNetworkBandwidth, 8.0e5, 1.6e6);
  }

  // This scenario runs no goal director: telemetry faults land on a feed
  // nothing reads.
  odapps::Settle(bed);
  monitor.Start();
  degraded.Arm(options.plan);

  FaultScenarioResult result;
  result.min_video_fidelity = bed.video().current_fidelity();
  result.min_web_fidelity = bed.web().current_fidelity();
  result.min_map_fidelity = bed.map().current_fidelity();

  // Workload: endless page and map loops plus a looping background video.
  // Each loop schedules its next unit from its completion callback, so a
  // unit that degrades (text-only page, cached map) still keeps the loop
  // moving — that is the point.
  std::function<void()> browse = [&] {
    bed.web().BrowsePage(
        odapps::StandardWebImages()[result.pages_browsed % 4], [&] {
          ++result.pages_browsed;
          browse();
        });
  };
  std::function<void()> view = [&] {
    bed.map().ViewMap(odapps::StandardMaps()[result.maps_viewed % 4], [&] {
      ++result.maps_viewed;
      view();
    });
  };
  browse();
  view();
  // Local full-vocabulary recognition pages from disk, so disk-latency
  // faults slow this loop without touching the network ones.
  bed.speech().set_mode(odapps::SpeechMode::kLocal);
  bed.speech().set_vocab_paging(true);
  std::function<void()> recognize = [&] {
    bed.speech().Recognize(
        odapps::StandardUtterances()[result.utterances_recognized % 4], [&] {
          ++result.utterances_recognized;
          bed.sim().Schedule(
              odsim::SimDuration::Seconds(kThinkSeconds), recognize);
        });
  };
  recognize();
  bed.video().PlayLooping(odapps::StandardVideoClips()[0]);

  // 1 s sampler for clamp time and fidelity floors.
  bed.sim().Every(odsim::SimDuration::Seconds(1), [&] {
    if (bed.viceroy().link_clamped()) {
      result.clamped_seconds += 1.0;
    }
    result.min_video_fidelity =
        std::min(result.min_video_fidelity, bed.video().current_fidelity());
    result.min_web_fidelity =
        std::min(result.min_web_fidelity, bed.web().current_fidelity());
    result.min_map_fidelity =
        std::min(result.min_map_fidelity, bed.map().current_fidelity());
  });

  odapps::TestBed::Measurement m = bed.MeasureFor(options.duration);
  bed.video().StopLooping();
  monitor.Stop();

  result.joules = m.joules;
  result.seconds = m.seconds;
  result.chunks_played = bed.video().chunks_played();
  result.chunks_dropped = bed.video().chunks_dropped();
  result.pages_degraded = bed.web().pages_degraded();
  result.maps_degraded = bed.map().maps_degraded();
  result.failed_fetches = WardenFailures(bed.viceroy(), "web") +
                          WardenFailures(bed.viceroy(), "map") +
                          WardenFailures(bed.viceroy(), "speech") +
                          WardenFailures(bed.viceroy(), "video");
  result.retransmissions = bed.viceroy().rpc().retransmissions();
  result.request_losses = bed.viceroy().rpc().request_losses();
  result.reply_losses = bed.viceroy().rpc().reply_losses();
  result.retries_exhausted = bed.viceroy().rpc().retries_exhausted();
  result.deadlines_exceeded = bed.viceroy().rpc().deadlines_exceeded();
  result.adaptations = bed.viceroy().TotalAdaptations();
  result.outage_clamps = bed.viceroy().outage_clamps();
  result.clamped_at_end = bed.viceroy().link_clamped();
  result.final_video_fidelity = bed.video().current_fidelity();
  result.final_web_fidelity = bed.web().current_fidelity();
  result.final_map_fidelity = bed.map().current_fidelity();
  result.completed = result.pages_browsed > 0 && result.maps_viewed > 0 &&
                     result.utterances_recognized > 0 &&
                     result.chunks_played > 0;
  result.trace = m.trace;
  return result;
}

}  // namespace odfault
