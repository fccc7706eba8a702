// Stochastic bursty workload (Section 5.4).
//
// Each of the four applications is independently active or idle.  During
// any given minute, an active application stays active (and an idle one
// idle) with probability 0.9; with probability 0.1 it switches state.  An
// active application executes a fixed one-minute workload: the video
// application shows a one-minute video, the map application fetches five
// maps, the Web browser fetches five pages, and the speech recognizer
// recognizes five utterances.

#ifndef SRC_APPS_BURSTY_H_
#define SRC_APPS_BURSTY_H_

#include <array>

#include "src/apps/data_objects.h"
#include "src/apps/map_viewer.h"
#include "src/apps/speech_recognizer.h"
#include "src/apps/video_player.h"
#include "src/apps/web_browser.h"
#include "src/util/rng.h"

namespace odapps {

// A recorded activity schedule: per minute, which of the four applications
// (video, speech, web, map — in that order) are active.  Lets an observed
// stochastic run be replayed exactly, or hand-written schedules be driven.
struct MinuteSchedule {
  std::vector<std::array<bool, 4>> minutes;

  bool empty() const { return minutes.empty(); }
};

class BurstyWorkload {
 public:
  struct Config {
    double switch_probability = 0.1;
    // When non-empty, states follow this schedule (repeating its last
    // minute if the run outlives it) instead of the Markov draws.
    MinuteSchedule replay;
  };

  BurstyWorkload(odsim::Simulator* sim, VideoPlayer* video,
                 SpeechRecognizer* speech, WebBrowser* web, MapViewer* map,
                 odutil::Rng* rng, const Config& config);
  BurstyWorkload(odsim::Simulator* sim, VideoPlayer* video,
                 SpeechRecognizer* speech, WebBrowser* web, MapViewer* map,
                 odutil::Rng* rng)
      : BurstyWorkload(sim, video, speech, web, map, rng, Config{}) {}

  BurstyWorkload(const BurstyWorkload&) = delete;
  BurstyWorkload& operator=(const BurstyWorkload&) = delete;

  // Draws initial states (each app active with probability 0.5) and starts
  // the per-minute schedule.
  void Start();
  void Stop();

  bool video_active() const { return active_[0]; }
  bool speech_active() const { return active_[1]; }
  bool web_active() const { return active_[2]; }
  bool map_active() const { return active_[3]; }

  // The activity states observed so far, one entry per elapsed minute —
  // feed back into Config::replay to reproduce this run's schedule.
  const MinuteSchedule& recorded_schedule() const { return recorded_; }

 private:
  void MinuteTick();
  void DriveVideo();
  void DriveSpeech(odsim::SimTime active_until);
  void DriveWeb(odsim::SimTime active_until);
  void DriveMap(odsim::SimTime active_until);

  odsim::Simulator* sim_;
  VideoPlayer* video_;
  SpeechRecognizer* speech_;
  WebBrowser* web_;
  MapViewer* map_;
  odutil::Rng* rng_;
  Config config_;

  bool running_ = false;
  size_t minute_index_ = 0;
  MinuteSchedule recorded_;
  std::array<bool, 4> active_ = {false, false, false, false};
  std::array<odsim::SimTime, 4> active_until_ = {};
  std::array<bool, 4> chain_running_ = {false, false, false, false};
  std::array<int, 4> next_object_ = {0, 0, 0, 0};
  odsim::PeriodicHandle tick_;
};

}  // namespace odapps

#endif  // SRC_APPS_BURSTY_H_
