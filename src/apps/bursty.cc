#include "src/apps/bursty.h"

#include <algorithm>

#include "src/util/check.h"

namespace odapps {

namespace {

// One schedule step, and the spacing of the five units an active
// request-driven application (speech, web, map) runs in it.
constexpr odsim::SimDuration kMinute = odsim::SimDuration::Seconds(60);
constexpr odsim::SimDuration kUnitSpacing = odsim::SimDuration::Seconds(12);

constexpr int kVideo = 0;
constexpr int kSpeech = 1;
constexpr int kWeb = 2;
constexpr int kMap = 3;
}  // namespace

BurstyWorkload::BurstyWorkload(odsim::Simulator* sim, VideoPlayer* video,
                               SpeechRecognizer* speech, WebBrowser* web,
                               MapViewer* map, odutil::Rng* rng,
                               const Config& config)
    : sim_(sim),
      video_(video),
      speech_(speech),
      web_(web),
      map_(map),
      rng_(rng),
      config_(config) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(video != nullptr);
  OD_CHECK(speech != nullptr);
  OD_CHECK(web != nullptr);
  OD_CHECK(map != nullptr);
  OD_CHECK(rng != nullptr);
}

void BurstyWorkload::Start() {
  OD_CHECK(!running_);
  running_ = true;
  minute_index_ = 0;
  recorded_.minutes.clear();
  if (config_.replay.empty()) {
    for (bool& a : active_) {
      a = rng_->Bernoulli(0.5);
    }
  }
  MinuteTick();
  tick_ = sim_->Every(kMinute, [this] { MinuteTick(); });
}

void BurstyWorkload::Stop() {
  running_ = false;
  tick_.Cancel();
}

void BurstyWorkload::MinuteTick() {
  odsim::SimTime now = sim_->Now();
  if (!config_.replay.empty()) {
    size_t index = std::min(minute_index_, config_.replay.minutes.size() - 1);
    active_ = config_.replay.minutes[index];
  } else {
    for (bool& a : active_) {
      if (rng_->Bernoulli(config_.switch_probability)) {
        a = !a;
      }
    }
  }
  for (int i = 0; i < 4; ++i) {
    if (active_[static_cast<size_t>(i)]) {
      active_until_[static_cast<size_t>(i)] = now + kMinute;
    }
  }
  recorded_.minutes.push_back(active_);
  ++minute_index_;
  if (video_active()) {
    DriveVideo();
  }
  if (speech_active() && !chain_running_[kSpeech]) {
    DriveSpeech(active_until_[kSpeech]);
  }
  if (web_active() && !chain_running_[kWeb]) {
    DriveWeb(active_until_[kWeb]);
  }
  if (map_active() && !chain_running_[kMap]) {
    DriveMap(active_until_[kMap]);
  }
}

void BurstyWorkload::DriveVideo() {
  if (!running_ || video_->playing() || chain_running_[kVideo]) {
    return;
  }
  if (sim_->Now() >= active_until_[kVideo]) {
    return;
  }
  chain_running_[kVideo] = true;
  const auto& clips = StandardVideoClips();
  const VideoClip& clip =
      clips[static_cast<size_t>(next_object_[kVideo]++ % 4)];
  odsim::SimDuration remaining = active_until_[kVideo] - sim_->Now();
  video_->PlaySegment(clip, remaining, [this] {
    chain_running_[kVideo] = false;
    DriveVideo();
  });
}

void BurstyWorkload::DriveSpeech(odsim::SimTime /*active_until*/) {
  if (!running_ || sim_->Now() >= active_until_[kSpeech] || speech_->busy()) {
    chain_running_[kSpeech] = false;
    return;
  }
  chain_running_[kSpeech] = true;
  odsim::SimTime unit_start = sim_->Now();
  const auto& utterances = StandardUtterances();
  const Utterance& utterance =
      utterances[static_cast<size_t>(next_object_[kSpeech]++ % 4)];
  speech_->Recognize(utterance, [this, unit_start] {
    odsim::SimTime next = unit_start + kUnitSpacing;
    if (next <= sim_->Now()) {
      DriveSpeech(active_until_[kSpeech]);
    } else {
      sim_->ScheduleAt(next, [this] { DriveSpeech(active_until_[kSpeech]); });
    }
  });
}

void BurstyWorkload::DriveWeb(odsim::SimTime /*active_until*/) {
  if (!running_ || sim_->Now() >= active_until_[kWeb] || web_->busy()) {
    chain_running_[kWeb] = false;
    return;
  }
  chain_running_[kWeb] = true;
  odsim::SimTime unit_start = sim_->Now();
  const auto& images = StandardWebImages();
  const WebImage& image = images[static_cast<size_t>(next_object_[kWeb]++ % 4)];
  web_->BrowsePage(image, [this, unit_start] {
    odsim::SimTime next = unit_start + kUnitSpacing;
    if (next <= sim_->Now()) {
      DriveWeb(active_until_[kWeb]);
    } else {
      sim_->ScheduleAt(next, [this] { DriveWeb(active_until_[kWeb]); });
    }
  });
}

void BurstyWorkload::DriveMap(odsim::SimTime /*active_until*/) {
  if (!running_ || sim_->Now() >= active_until_[kMap] || map_->busy()) {
    chain_running_[kMap] = false;
    return;
  }
  chain_running_[kMap] = true;
  odsim::SimTime unit_start = sim_->Now();
  const auto& maps = StandardMaps();
  const MapObject& map = maps[static_cast<size_t>(next_object_[kMap]++ % 4)];
  map_->ViewMap(map, [this, unit_start] {
    odsim::SimTime next = unit_start + kUnitSpacing;
    if (next <= sim_->Now()) {
      DriveMap(active_until_[kMap]);
    } else {
      sim_->ScheduleAt(next, [this] { DriveMap(active_until_[kMap]); });
    }
  });
}

}  // namespace odapps
