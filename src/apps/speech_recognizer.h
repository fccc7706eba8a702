// Adaptive speech recognizer (Section 3.4) — a front end plus the Janus
// recognition engine, running locally, remotely, or in hybrid mode.
//
// Fidelity is lowered by using a reduced vocabulary and a less complex
// acoustic model (halving local recognition time).  The execution site is a
// separate configuration axis: local recognition is unavoidable when
// disconnected; remote recognition trades network energy for server cycles;
// hybrid mode runs the first recognition phase locally as a type-specific
// 5x compressor and ships the compact intermediate representation.

#ifndef SRC_APPS_SPEECH_RECOGNIZER_H_
#define SRC_APPS_SPEECH_RECOGNIZER_H_

#include <string>

#include "src/apps/calibration.h"
#include "src/apps/data_objects.h"
#include "src/apps/wardens.h"
#include "src/odyssey/application.h"
#include "src/odyssey/viceroy.h"
#include "src/util/rng.h"

namespace odapps {

enum class SpeechMode {
  kLocal,
  kRemote,
  kHybrid,
};

class SpeechRecognizer : public odyssey::AdaptiveApplication {
 public:
  SpeechRecognizer(odyssey::Viceroy* viceroy, odutil::Rng* rng, int priority = 0);
  ~SpeechRecognizer() override;

  // -- AdaptiveApplication ---------------------------------------------------
  const std::string& name() const override { return name_; }
  int priority() const override { return priority_; }

  // Lets experiments reorder adaptation (the priority-ablation bench); the
  // paper plans dynamic user-controlled priorities as future work.
  void set_priority(int priority) { priority_ = priority; }
  const odyssey::FidelitySpec& fidelity_spec() const override { return spec_; }
  int current_fidelity() const override { return fidelity_; }
  void SetFidelity(int level) override { fidelity_ = level; }

  // Execution site; orthogonal to the fidelity ladder.
  void set_mode(SpeechMode mode) { mode_ = mode; }
  SpeechMode mode() const { return mode_; }

  bool reduced_model() const { return fidelity_ == 0; }

  // When enabled, full-model local recognition pages the vocabulary from
  // disk (Section 3.4's "more complex recognition tasks may trigger disk
  // activity"), spinning the disk up if power management had it in standby.
  // Off by default: the paper's measured configuration fits in memory.
  void set_vocab_paging(bool enabled) { vocab_paging_ = enabled; }

  // Recognizes one utterance; `on_done` fires when text is available.
  void Recognize(const Utterance& utterance, odsim::EventFn on_done);

  bool busy() const { return busy_; }

 private:
  void RunLocal(double seconds, odsim::EventFn on_done);
  void RunRemote(double seconds, odsim::EventFn on_done);
  void RunHybrid(double seconds, odsim::EventFn on_done);
  void Finish(odsim::EventFn on_done);

  odyssey::Viceroy* viceroy_;
  odutil::Rng* rng_;
  std::string name_ = "Speech";
  int priority_;
  odyssey::FidelitySpec spec_;
  int fidelity_;
  SpeechMode mode_ = SpeechMode::kLocal;
  bool vocab_paging_ = false;
  bool busy_ = false;

  SpeechWarden* warden_;
  odsim::ProcessId janus_pid_;
  odsim::ProcedureId frontend_proc_;
  odsim::ProcedureId search_proc_;
};

}  // namespace odapps

#endif  // SRC_APPS_SPEECH_RECOGNIZER_H_
