#include "src/scenario/driver.h"

#include <algorithm>
#include <utility>

#include "src/apps/data_objects.h"
#include "src/odyssey/warden.h"
#include "src/util/check.h"

namespace odscenario {

namespace {
// Background-sync shape: a small annotated request, a few KB of state, a
// sliver of server time — the cost is dominated by waking the interface.
constexpr size_t kSyncRequestBytes = 256;
constexpr size_t kSyncReplyBytes = 4096;
constexpr int kSyncServerMillis = 20;
// How long a deferred start waits before re-checking that the app(s) it
// needs are free (composite needs all three; a rate or video channel polls
// when another holder — composite, burst — has its app).
constexpr int kBusyPollMillis = 250;
}  // namespace

ScenarioDriver::ScenarioDriver(odapps::TestBed* bed, Scenario scenario,
                               uint64_t seed)
    : bed_(bed), scenario_(std::move(scenario)), rng_(seed ^ 0x5ceaULL) {
  OD_CHECK(bed != nullptr);
}

void ScenarioDriver::Start() {
  OD_CHECK(!running_);
  running_ = true;
  odsim::SimTime start = bed_->sim().Now();
  for (const ScenarioPhase& phase : scenario_.phases) {
    bed_->sim().ScheduleAt(start + phase.at,
                           [this, phase] { Activate(phase); });
  }
}

void ScenarioDriver::Stop() {
  running_ = false;
  if (burst_running_) {
    bursty_->Stop();
    burst_running_ = false;
  }
  if (composite_ != nullptr) {
    composite_->Stop();
  }
}

void ScenarioDriver::Activate(const ScenarioPhase& phase) {
  if (!running_) {
    return;
  }
  odsim::SimTime now = bed_->sim().Now();
  odsim::SimTime end = now + phase.duration;
  switch (phase.kind) {
    case PhaseKind::kVideo:
      video_until_ = std::max(video_until_, end);
      DriveVideo();
      break;
    case PhaseKind::kWeb:
    case PhaseKind::kMap:
    case PhaseKind::kSpeech: {
      Channel channel = phase.kind == PhaseKind::kWeb   ? kWeb
                        : phase.kind == PhaseKind::kMap ? kMap
                                                        : kSpeech;
      // Overlapping same-kind phases: the later activation's rate and
      // window win (documented in scenario.h's grammar notes).
      until_[channel] = std::max(until_[channel], end);
      per_minute_[channel] = phase.param;
      if (!chain_[channel]) {
        DriveRate(channel);
      }
      break;
    }
    case PhaseKind::kComposite:
      composite_until_ = std::max(composite_until_, end);
      composite_period_ = odsim::SimDuration::Seconds(phase.param);
      if (composite_ == nullptr) {
        composite_ = std::make_unique<odapps::CompositeApp>(
            &bed_->sim(), &bed_->speech(), &bed_->web(), &bed_->map());
      }
      if (!composite_chain_) {
        DriveComposite();
      }
      break;
    case PhaseKind::kSync:
      sync_until_ = std::max(sync_until_, end);
      sync_period_ = odsim::SimDuration::Seconds(phase.param);
      if (!sync_chain_) {
        DriveSync();
      }
      break;
    case PhaseKind::kBurst:
      EnsureBurst(phase.param, end);
      break;
    case PhaseKind::kIdle:
    case PhaseKind::kGap:
      // Idle is the absence of behavior; gaps travel as fault windows
      // (DerivedFaultPlan), not driver work.
      break;
  }
}

void ScenarioDriver::DriveVideo() {
  if (!running_ || video_chain_ || bed_->sim().Now() >= video_until_) {
    return;
  }
  if (bed_->video().playing()) {
    // Another holder (the bursty workload) has the player; poll until it
    // frees rather than silently dropping the rest of the phase.
    bed_->sim().Schedule(odsim::SimDuration::Millis(kBusyPollMillis),
                         [this] { DriveVideo(); });
    return;
  }
  video_chain_ = true;
  const auto& clips = odapps::StandardVideoClips();
  const odapps::VideoClip& clip =
      clips[static_cast<size_t>(next_clip_++ % 4)];
  odsim::SimDuration remaining = video_until_ - bed_->sim().Now();
  ++counters_.video_segments;
  bed_->video().PlaySegment(clip, remaining, [this] {
    video_chain_ = false;
    DriveVideo();
  });
}

void ScenarioDriver::DriveRate(Channel channel) {
  if (!running_ || bed_->sim().Now() >= until_[channel]) {
    chain_[channel] = false;
    return;
  }
  bool busy = channel == kWeb   ? bed_->web().busy()
              : channel == kMap ? bed_->map().busy()
                                : bed_->speech().busy();
  if (busy) {
    // Another holder (composite, burst) has the app; poll until it frees
    // rather than silently dropping the rest of the phase.  The app's own
    // busy flag keeps stacked polls from double-driving it.
    chain_[channel] = true;
    bed_->sim().Schedule(odsim::SimDuration::Millis(kBusyPollMillis),
                         [this, channel] { DriveRate(channel); });
    return;
  }
  chain_[channel] = true;
  odsim::SimTime unit_start = bed_->sim().Now();
  odsim::SimDuration spacing =
      odsim::SimDuration::Seconds(60.0 / per_minute_[channel]);
  auto next = [this, channel, unit_start, spacing] {
    odsim::SimTime at = unit_start + spacing;
    if (at <= bed_->sim().Now()) {
      DriveRate(channel);
    } else {
      bed_->sim().ScheduleAt(at, [this, channel] { DriveRate(channel); });
    }
  };
  int index = next_object_[channel]++ % 4;
  switch (channel) {
    case kWeb: {
      ++counters_.pages;
      const auto& images = odapps::StandardWebImages();
      bed_->web().BrowsePage(images[static_cast<size_t>(index)],
                             std::move(next));
      break;
    }
    case kMap: {
      ++counters_.maps;
      const auto& maps = odapps::StandardMaps();
      bed_->map().ViewMap(maps[static_cast<size_t>(index)], std::move(next));
      break;
    }
    default: {
      ++counters_.utterances;
      const auto& utterances = odapps::StandardUtterances();
      bed_->speech().Recognize(utterances[static_cast<size_t>(index)],
                               std::move(next));
      break;
    }
  }
}

void ScenarioDriver::DriveComposite() {
  if (!running_ || bed_->sim().Now() >= composite_until_) {
    composite_chain_ = false;
    return;
  }
  // The composite iteration drives speech/web/map without busy guards, so
  // it must not start while another channel holds one of them.
  if (composite_->running() || bed_->speech().busy() || bed_->web().busy() ||
      bed_->map().busy()) {
    composite_chain_ = true;
    ++counters_.composite_deferrals;
    bed_->sim().Schedule(odsim::SimDuration::Millis(kBusyPollMillis),
                         [this] { DriveComposite(); });
    return;
  }
  composite_chain_ = true;
  odsim::SimTime unit_start = bed_->sim().Now();
  ++counters_.composite_iterations;
  composite_->RunIterations(1, [this, unit_start] {
    odsim::SimTime at = unit_start + composite_period_;
    if (at <= bed_->sim().Now()) {
      DriveComposite();
    } else {
      bed_->sim().ScheduleAt(at, [this] { DriveComposite(); });
    }
  });
}

void ScenarioDriver::DriveSync() {
  if (!running_ || bed_->sim().Now() >= sync_until_) {
    sync_chain_ = false;
    return;
  }
  sync_chain_ = true;
  odsim::SimTime unit_start = bed_->sim().Now();
  ++counters_.sync_fetches;
  odyssey::Warden* warden = bed_->viceroy().FindWarden("web");
  OD_CHECK(warden != nullptr);
  warden->Fetch("", kSyncRequestBytes, kSyncReplyBytes,
                odsim::SimDuration::Millis(kSyncServerMillis),
                [this, unit_start](const odyssey::Warden::FetchOutcome&) {
                  odsim::SimTime at = unit_start + sync_period_;
                  if (at <= bed_->sim().Now()) {
                    DriveSync();
                  } else {
                    bed_->sim().ScheduleAt(at, [this] { DriveSync(); });
                  }
                });
}

void ScenarioDriver::EnsureBurst(double switch_probability,
                                 odsim::SimTime until) {
  burst_until_ = std::max(burst_until_, until);
  if (!burst_running_) {
    odapps::BurstyWorkload::Config config;
    config.switch_probability = switch_probability;
    bursty_ = std::make_unique<odapps::BurstyWorkload>(
        &bed_->sim(), &bed_->video(), &bed_->speech(), &bed_->web(),
        &bed_->map(), &rng_, config);
    bursty_->Start();
    burst_running_ = true;
    ++counters_.burst_starts;
  }
  bed_->sim().ScheduleAt(burst_until_, [this] {
    if (burst_running_ && bed_->sim().Now() >= burst_until_) {
      bursty_->Stop();
      burst_running_ = false;
    }
  });
}

void ApplyScenarioWorkload(const Scenario& scenario,
                           odapps::GoalScenarioOptions* options,
                           std::shared_ptr<ScenarioWorkloadStats> stats,
                           bool derive_environment) {
  OD_CHECK(options != nullptr);
  if (derive_environment) {
    odfault::FaultPlan derived = scenario.DerivedFaultPlan();
    options->fault_plan.events.insert(options->fault_plan.events.end(),
                                      derived.events.begin(),
                                      derived.events.end());
  }
  const uint64_t seed = options->seed;
  options->workload_factory = [scenario, seed,
                               stats](odapps::TestBed& bed) {
    auto driver = std::make_shared<ScenarioDriver>(&bed, scenario, seed);
    driver->Start();
    return std::function<void()>([driver, stats] {
      driver->Stop();
      if (stats != nullptr) {
        stats->counters = driver->counters();
      }
    });
  };
}

}  // namespace odscenario
