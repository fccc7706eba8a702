// Helpers for the band tests' two execution modes.
//
// Each reproduction band either replays a recorded `odbench run all --out`
// artifact (ODBENCH_ARTIFACT_DIR set; asserts against cross-trial means)
// or simulates live, exactly as before replay existed.  OrLive() expresses
// one quantity in both modes: the recorded value when the replay lookup
// found one, otherwise the result of the live lambda — which therefore
// only simulates when it has to.
//
// Tests whose quantities must share a scale (e.g. the fig18 cells, which
// are normalized by a common baseline) should branch wholesale on the
// first lookup instead of calling OrLive per quantity, so a partially
// readable artifact can never mix recorded and live values.

#ifndef TESTS_REPRO_REPLAY_UTIL_H_
#define TESTS_REPRO_REPLAY_UTIL_H_

#include <optional>
#include <utility>

#include "tests/repro/artifact_replay.h"

namespace odrepro {

template <typename Live>
double OrLive(const std::optional<double>& recorded, Live&& live) {
  return recorded.has_value() ? *recorded : std::forward<Live>(live)();
}

}  // namespace odrepro

#endif  // TESTS_REPRO_REPLAY_UTIL_H_
