// Recorded-artifact lookup for replay-mode tests.
//
// The reproduction bands in tests/repro/ historically re-simulated every
// scenario the bench experiments already run, doubling CI simulation time.
// ArtifactReplay lets them consume a recorded run instead: point
// ODBENCH_ARTIFACT_DIR at a directory of `odbench run all --out` artifacts
// and each band test asserts the paper's bands against the recorded
// cross-trial means; every accessor returns nullopt when replay is
// disabled or the artifact/set/key is absent, which is the caller's signal
// to fall back to live simulation.
//
//   const auto& replay = odharness::ArtifactReplay::Env();
//   if (auto mean = replay.SetMean("fig06_video", "Video 1/Combined")) {
//     // assert bands against *mean
//   } else {
//     // simulate live, as before
//   }
//
// Artifacts load lazily and are cached per experiment, so a test binary
// touching fig06 fifty times parses fig06_video.json once.

#ifndef TESTS_REPRO_ARTIFACT_REPLAY_H_
#define TESTS_REPRO_ARTIFACT_REPLAY_H_

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/harness/artifact.h"

namespace odharness {

class ArtifactReplay {
 public:
  // Reads artifacts from `dir` (one <experiment>.json per experiment); an
  // empty dir disables replay and every accessor returns nullopt.
  //
  // `expected_fault_plan` is the canonical disturbance spec the consumer
  // is asserting against ("" = a clean run, the usual case for the band
  // tests).  An artifact recorded under a *different* plan answers a
  // different question, so it is rejected — with a one-time diagnostic —
  // and the caller's nullopt path falls back to live simulation.
  explicit ArtifactReplay(std::string dir, std::string expected_fault_plan = "");

  // Shared instance configured from $ODBENCH_ARTIFACT_DIR.
  static const ArtifactReplay& Env();

  bool enabled() const { return !dir_.empty(); }

  // The recorded artifact for `experiment`, or nullptr when replay is
  // disabled, the file is missing, or it fails to parse.
  const RunArtifact* Get(const std::string& experiment) const;

  // Cross-trial mean of a set's headline value.
  std::optional<double> SetMean(const std::string& experiment,
                                const std::string& label) const;
  // Cross-trial mean of one per-process breakdown key of a set.
  std::optional<double> BreakdownMean(const std::string& experiment,
                                      const std::string& label,
                                      const std::string& key) const;
  // Cross-trial mean of one per-component key of a set.
  std::optional<double> ComponentMean(const std::string& experiment,
                                      const std::string& label,
                                      const std::string& key) const;
  // A recorded scalar note.
  std::optional<double> Note(const std::string& experiment,
                             const std::string& key) const;

 private:
  const TrialSet* FindSet(const std::string& experiment,
                          const std::string& label) const;

  std::string dir_;
  std::string expected_fault_plan_;
  mutable std::mutex mutex_;
  mutable std::map<std::string, std::optional<RunArtifact>> cache_;
};

}  // namespace odharness

#endif  // TESTS_REPRO_ARTIFACT_REPLAY_H_
