#include "src/apps/speech_recognizer.h"

#include <memory>
#include <utility>

#include "src/power/power_manager.h"
#include "src/util/check.h"

namespace odapps {

SpeechRecognizer::SpeechRecognizer(odyssey::Viceroy* viceroy, odutil::Rng* rng,
                                   int priority)
    : viceroy_(viceroy),
      rng_(rng),
      priority_(priority),
      spec_({"Reduced model", "Full model"}),
      fidelity_(spec_.highest()) {
  OD_CHECK(viceroy != nullptr);
  OD_CHECK(rng != nullptr);
  odsim::Simulator* sim = viceroy_->sim();
  warden_ = static_cast<SpeechWarden*>(viceroy_->FindWarden("speech"));
  if (warden_ == nullptr) {
    warden_ = static_cast<SpeechWarden*>(
        viceroy_->RegisterWarden(std::make_unique<SpeechWarden>(sim)));
  }
  janus_pid_ = sim->processes().RegisterProcess("Janus");
  frontend_proc_ = sim->processes().RegisterProcedure("_GenerateWaveform");
  search_proc_ = sim->processes().RegisterProcedure("_ViterbiSearch");
  viceroy_->RegisterApplication(this);
}

SpeechRecognizer::~SpeechRecognizer() { viceroy_->UnregisterApplication(this); }

void SpeechRecognizer::Recognize(const Utterance& utterance, odsim::EventFn on_done) {
  OD_CHECK(!busy_);
  busy_ = true;
  double seconds = utterance.duration_seconds;

  // Front end: generate the waveform.
  double frontend = kSpeechCal.frontend_rtf * seconds * rng_->Uniform(0.97, 1.03);
  viceroy_->sim()->SubmitWork(
      janus_pid_, frontend_proc_, odsim::SimDuration::Seconds(frontend),
      [this, seconds, on_done = std::move(on_done)]() mutable {
        switch (mode_) {
          case SpeechMode::kLocal:
            RunLocal(seconds, std::move(on_done));
            break;
          case SpeechMode::kRemote:
            RunRemote(seconds, std::move(on_done));
            break;
          case SpeechMode::kHybrid:
            RunHybrid(seconds, std::move(on_done));
            break;
        }
      });
}

void SpeechRecognizer::RunLocal(double seconds, odsim::EventFn on_done) {
  double rtf =
      reduced_model() ? kSpeechCal.local_rtf_reduced : kSpeechCal.local_rtf_full;
  double work = rtf * seconds * rng_->Uniform(0.97, 1.03);

  bool pages = vocab_paging_ && !reduced_model();
  if (!pages) {
    viceroy_->sim()->SubmitWork(janus_pid_, search_proc_,
                                odsim::SimDuration::Seconds(work),
                                [this, on_done = std::move(on_done)]() mutable {
                                  Finish(std::move(on_done));
                                });
    return;
  }

  // Paging overlaps the search: recognition completes when both the CPU
  // work and the disk traffic have finished.
  auto remaining = std::make_shared<int>(2);
  auto done_fn = std::make_shared<odsim::EventFn>(std::move(on_done));
  auto join = [this, remaining, done_fn] {
    if (--*remaining == 0) {
      Finish(std::move(*done_fn));
    }
  };
  viceroy_->sim()->SubmitWork(janus_pid_, search_proc_,
                              odsim::SimDuration::Seconds(work), join);
  viceroy_->power_manager()->AccessDisk(
      odsim::SimDuration::Seconds(work * kSpeechCal.full_vocab_disk_fraction),
      join);
}

void SpeechRecognizer::RunRemote(double seconds, odsim::EventFn on_done) {
  double rtf =
      reduced_model() ? kSpeechCal.server_rtf_reduced : kSpeechCal.server_rtf_full;
  auto waveform =
      static_cast<size_t>(kSpeechCal.waveform_bytes_per_second * seconds);
  double server = rtf * seconds * rng_->Uniform(0.95, 1.05);
  warden_->Fetch("", waveform, kSpeechCal.reply_bytes,
                 odsim::SimDuration::Seconds(server),
                 [this, on_done = std::move(on_done)](
                     const odyssey::Warden::FetchOutcome&) mutable {
                   Finish(std::move(on_done));
                 });
}

void SpeechRecognizer::RunHybrid(double seconds, odsim::EventFn on_done) {
  double local_rtf = reduced_model() ? kSpeechCal.hybrid_local_rtf_reduced
                                     : kSpeechCal.hybrid_local_rtf_full;
  double server_rtf = reduced_model() ? kSpeechCal.hybrid_server_rtf_reduced
                                      : kSpeechCal.hybrid_server_rtf_full;
  double phase1 = local_rtf * seconds * rng_->Uniform(0.97, 1.03);
  auto compact = static_cast<size_t>(kSpeechCal.waveform_bytes_per_second * seconds /
                                     kSpeechCal.hybrid_compression);
  double server = server_rtf * seconds * rng_->Uniform(0.95, 1.05);
  viceroy_->sim()->SubmitWork(
      janus_pid_, search_proc_, odsim::SimDuration::Seconds(phase1),
      [this, compact, server, on_done = std::move(on_done)]() mutable {
        warden_->Fetch("", compact, kSpeechCal.reply_bytes,
                       odsim::SimDuration::Seconds(server),
                       [this, on_done = std::move(on_done)](
                           const odyssey::Warden::FetchOutcome&) mutable {
                         Finish(std::move(on_done));
                       });
      });
}

void SpeechRecognizer::Finish(odsim::EventFn on_done) {
  busy_ = false;
  if (on_done) {
    on_done();
  }
}

}  // namespace odapps
