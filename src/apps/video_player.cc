#include "src/apps/video_player.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/check.h"

namespace odapps {

VideoPlayer::VideoPlayer(odyssey::Viceroy* viceroy, DisplayArbiter* arbiter,
                         odutil::Rng* rng, int priority)
    : viceroy_(viceroy),
      arbiter_(arbiter),
      rng_(rng),
      priority_(priority),
      spec_({"Ambient (quarter window, half rate, dim)", "Premiere-C half window",
             "Premiere-C", "Premiere-B", "Baseline"}),
      fidelity_(spec_.highest()) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(arbiter != nullptr);
  OD_CHECK(rng != nullptr);
  odsim::Simulator* sim = viceroy_->sim();
  warden_ = static_cast<VideoWarden*>(viceroy_->FindWarden("video"));
  if (warden_ == nullptr) {
    warden_ = static_cast<VideoWarden*>(
        viceroy_->RegisterWarden(std::make_unique<VideoWarden>(sim)));
  }
  xanim_pid_ = sim->processes().RegisterProcess("xanim");
  decode_proc_ = sim->processes().RegisterProcedure("_DecodeCinepakFrame");
  xserver_pid_ = sim->processes().RegisterProcess("X Server");
  render_proc_ = sim->processes().RegisterProcedure("_XPutImage");
  odyssey_pid_ = sim->processes().RegisterProcess("Odyssey");
  interrupt_pid_ = sim->processes().RegisterProcess("Interrupts-WaveLAN");
  viceroy_->RegisterApplication(this);
}

VideoPlayer::~VideoPlayer() { viceroy_->UnregisterApplication(this); }

void VideoPlayer::SetFidelity(int level) {
  OD_CHECK(spec_.valid(level));
  fidelity_ = level;
  ReacquireDisplay();
  UpdateZones();
}

VideoPlayer::Config VideoPlayer::EffectiveConfig() const {
  if (override_.has_value()) {
    return *override_;
  }
  switch (fidelity_) {
    case 0:
      return Config{.track = VideoTrack::kPremiereC,
                    .window_scale = 0.25,
                    .rate_scale = 0.5,
                    .dim_display = true};
    case 1:
      return Config{.track = VideoTrack::kPremiereC,
                    .window_scale = kVideoCal.reduced_window_scale};
    case 2:
      return Config{.track = VideoTrack::kPremiereC};
    case 3:
      return Config{.track = VideoTrack::kPremiereB};
    default:
      return Config{.track = VideoTrack::kBaseline};
  }
}

DisplayNeed VideoPlayer::CurrentNeed() const {
  return EffectiveConfig().dim_display ? DisplayNeed::kDim : DisplayNeed::kBright;
}

void VideoPlayer::ReacquireDisplay() {
  if (!playing_) {
    return;
  }
  DisplayNeed need = CurrentNeed();
  if (need != held_need_) {
    arbiter_->Acquire(need);
    arbiter_->Release(held_need_);
    held_need_ = need;
  }
}

void VideoPlayer::SetConfigOverride(const Config& config) {
  override_ = config;
  ReacquireDisplay();
  UpdateZones();
}

oddisplay::Rect VideoPlayer::window() const {
  return VideoWindow(EffectiveConfig().window_scale);
}

void VideoPlayer::set_zoned_controller(
    oddisplay::ZonedBacklightController* controller) {
  zoned_ = controller;
  UpdateZones();
}

void VideoPlayer::UpdateZones() {
  if (zoned_ != nullptr) {
    zoned_->SetWindows({window()});
  }
}

void VideoPlayer::PlayClip(const VideoClip& clip, odsim::EventFn on_done) {
  PlaySegment(clip, odsim::SimDuration::Seconds(clip.duration_seconds),
              std::move(on_done));
}

void VideoPlayer::PlaySegment(const VideoClip& clip, odsim::SimDuration duration,
                              odsim::EventFn on_done) {
  OD_CHECK(!playing_);
  playing_ = true;
  clip_ = &clip;
  position_seconds_ = 0.0;
  segment_seconds_ = std::min(duration.seconds(), clip.duration_seconds);
  on_done_ = std::move(on_done);
  held_need_ = CurrentNeed();
  arbiter_->Acquire(held_need_);
  UpdateZones();
  PlayChunk();
}

void VideoPlayer::PlayLooping(const VideoClip& clip) {
  looping_ = true;
  PlaySegment(clip, odsim::SimDuration::Seconds(clip.duration_seconds), nullptr);
}

void VideoPlayer::StopLooping() { looping_ = false; }

void VideoPlayer::PlayChunk() {
  double remaining = segment_seconds_ - position_seconds_;
  // Sub-microsecond tails are unrepresentable in integer sim time (the
  // chunk timer would round to zero); treat them as finished.
  if (remaining < 5e-7) {
    FinishPlayback();
    return;
  }
  double chunk = std::min(kVideoCal.chunk_seconds, remaining);
  Config config = EffectiveConfig();
  const VideoTrackSpec& track = clip_->track(config.track);
  odsim::Simulator* sim = viceroy_->sim();

  // Playback is paced and lossy: when a concurrent bulk transfer has the
  // channel backed up, or the previous chunk's decode/render pipeline is
  // still running (CPU contention from other applications), this chunk's
  // frames are dropped rather than queued without bound.
  // CPU contention shows as our own pipeline lagging, or as runnable work
  // from a foreign process (another application's computation) at the chunk
  // boundary; xanim politely drops frames rather than compete.
  bool foreign_work = false;
  for (odsim::ProcessId pid : sim->RunnablePids()) {
    if (pid != xanim_pid_ && pid != xserver_pid_ && pid != odyssey_pid_ &&
        pid != interrupt_pid_) {
      foreign_work = true;
      break;
    }
  }
  bool frames_dropped = viceroy_->link()->queued_transfers() >= 2 ||
                        outstanding_chunks_ > 0 || foreign_work;
  if (frames_dropped) {
    ++chunks_dropped_;
  } else {
    ++chunks_played_;
    auto bytes =
        static_cast<size_t>(track.bitrate_bps * config.rate_scale * chunk / 8.0);
    double warden_cpu = kVideoCal.odyssey_busy * chunk;
    warden_->StreamChunk(bytes, odsim::SimDuration::Seconds(warden_cpu), nullptr);

    // Decode (xanim), then render (X server).  Decode cost tracks the
    // compression level and frame rate; render cost is proportional to
    // window area (frames are decoded before reaching X, so compression
    // does not affect it).
    double decode =
        track.decode_busy * config.rate_scale * chunk * rng_->Uniform(0.98, 1.02);
    double area = config.window_scale * config.window_scale;
    double render = kVideoCal.xserver_busy_full_window * area * config.rate_scale *
                    chunk * rng_->Uniform(0.98, 1.02);
    // A short tail chunk can cost less than a microsecond of decode or
    // render CPU, which rounds to zero in integer sim time — and the
    // simulator (correctly) rejects zero-duration work.  Stages that round
    // to nothing complete inline instead.
    odsim::SimDuration decode_work = odsim::SimDuration::Seconds(decode);
    odsim::SimDuration render_work = odsim::SimDuration::Seconds(render);
    ++outstanding_chunks_;
    auto finish_render = [this] { --outstanding_chunks_; };
    if (decode_work > odsim::SimDuration::Zero()) {
      sim->SubmitWork(xanim_pid_, decode_proc_, decode_work,
                      [this, sim, render_work, finish_render] {
                        if (render_work > odsim::SimDuration::Zero()) {
                          sim->SubmitWork(xserver_pid_, render_proc_,
                                          render_work, finish_render);
                        } else {
                          finish_render();
                        }
                      });
    } else if (render_work > odsim::SimDuration::Zero()) {
      sim->SubmitWork(xserver_pid_, render_proc_, render_work, finish_render);
    } else {
      finish_render();
    }
  }

  position_seconds_ += chunk;
  next_chunk_ =
      sim->Schedule(odsim::SimDuration::Seconds(chunk), [this] { PlayChunk(); });
}

void VideoPlayer::FinishPlayback() {
  if (looping_) {
    position_seconds_ = 0.0;
    PlayChunk();
    return;
  }
  playing_ = false;
  clip_ = nullptr;
  arbiter_->Release(held_need_);
  if (on_done_) {
    odsim::EventFn done = std::move(on_done_);
    on_done_ = nullptr;
    done();
  }
}

}  // namespace odapps
