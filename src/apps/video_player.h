// Adaptive video player (Section 3.3) — the paper's modified xanim.
//
// Fetches video from a server through the video warden and displays it.
// Fidelity dimensions: the level of lossy compression used to encode the
// clip (multiple tracks per clip on the server), the size of the display
// window, and — on the lowest rung only — frame rate and backlight level.
// The goal-directed ladder, lowest to highest: ambient (Premiere-C, quarter
// window, half rate, dimmed backlight), Premiere-C at half window,
// Premiere-C, Premiere-B, baseline encoding.

#ifndef SRC_APPS_VIDEO_PLAYER_H_
#define SRC_APPS_VIDEO_PLAYER_H_

#include <optional>
#include <string>

#include "src/apps/calibration.h"
#include "src/apps/data_objects.h"
#include "src/apps/display_arbiter.h"
#include "src/apps/wardens.h"
#include "src/display/zoned.h"
#include "src/odyssey/application.h"
#include "src/odyssey/viceroy.h"
#include "src/util/rng.h"

namespace odapps {

class VideoPlayer : public odyssey::AdaptiveApplication {
 public:
  struct Config {
    VideoTrack track = VideoTrack::kBaseline;
    double window_scale = 1.0;
    // Frame-rate scale: 0.5 halves delivered bitrate and decode/render work.
    double rate_scale = 1.0;
    // Ambient mode: the player accepts a dimmed backlight (lowest rung of
    // the goal-directed ladder).
    bool dim_display = false;
  };

  VideoPlayer(odyssey::Viceroy* viceroy, DisplayArbiter* arbiter, odutil::Rng* rng,
              int priority = 1);
  ~VideoPlayer() override;

  // -- AdaptiveApplication ---------------------------------------------------
  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }

  // Lets experiments reorder adaptation (the priority-ablation bench); the
  // paper plans dynamic user-controlled priorities as future work.
  void set_priority(int priority) { priority_ = priority; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override;

  // -- Playback --------------------------------------------------------------

  // Plays the whole clip; `on_done` fires after the final frame.
  void PlayClip(const VideoClip& clip, odsim::EventFn on_done);

  // Plays only the first `duration` of the clip.
  void PlaySegment(const VideoClip& clip, odsim::SimDuration duration,
                   odsim::EventFn on_done);

  // Loops the clip until StopLooping() — the background newsfeed of
  // Section 3.7.
  void PlayLooping(const VideoClip& clip);
  void StopLooping();

  bool playing() const { return playing_; }

  // Pins track/window regardless of the fidelity ladder (used by the
  // Figure 6 sweeps).
  void SetConfigOverride(const Config& config);

  Config EffectiveConfig() const;

  // Current playback window (normalized screen rect) for zoned backlighting.
  oddisplay::Rect window() const;

  // If set, the controller is updated whenever the window geometry changes.
  void set_zoned_controller(oddisplay::ZonedBacklightController* controller);

 private:
  void PlayChunk();
  void FinishPlayback();
  void UpdateZones();
  DisplayNeed CurrentNeed() const;
  void ReacquireDisplay();

  odyssey::Viceroy* viceroy_;
  DisplayArbiter* arbiter_;
  odutil::Rng* rng_;
  std::string name_ = "Video";
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
  std::optional<Config> override_;

  VideoWarden* warden_;
  odsim::ProcessId xanim_pid_;
  odsim::ProcedureId decode_proc_;
  odsim::ProcessId xserver_pid_;
  odsim::ProcedureId render_proc_;
  odsim::ProcessId odyssey_pid_;
  odsim::ProcessId interrupt_pid_;

  const VideoClip* clip_ = nullptr;
  double position_seconds_ = 0.0;
  double segment_seconds_ = 0.0;
  bool playing_ = false;
  bool looping_ = false;
  DisplayNeed held_need_ = DisplayNeed::kBright;
  // Chunks whose decode/render pipeline has not finished.  Playback is
  // paced: if the previous chunk is still in the pipeline (CPU contention),
  // the next chunk's frames are dropped rather than queued.
  int outstanding_chunks_ = 0;
  int64_t chunks_played_ = 0;
  int64_t chunks_dropped_ = 0;

 public:
  int64_t chunks_played() const { return chunks_played_; }
  int64_t chunks_dropped() const { return chunks_dropped_; }

 private:
  odsim::EventFn on_done_;
  odsim::EventHandle next_chunk_;
  oddisplay::ZonedBacklightController* zoned_ = nullptr;
};

}  // namespace odapps

#endif  // SRC_APPS_VIDEO_PLAYER_H_
