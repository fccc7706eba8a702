// Telemetry guard: the goal director's defenses around its power feed.
//
// The director trusts nothing about its telemetry.  Every power sample is
// validated (finite, nonnegative, physically plausible) before it may
// touch the demand predictor or the residual estimate, and the guard
// watches for the feed going silent or freezing.  Sustained corruption
// trips a safe mode: the director clamps every application to its
// cheapest fidelity (the energy-conserving choice when consumption cannot
// be observed) and freezes goal re-planning, since decisions made on
// garbage telemetry are worse than no decisions.  Safe mode lifts only
// after a streak of consecutive valid samples, mirroring the viceroy's
// link-outage recovery hysteresis.  Energy the monitor failed to integrate
// during a gap is bridged at the smoothed demand rate, and energy it
// integrated from implausible readings is re-counted at that rate (the
// telemetry debit), so the residual estimate survives telemetry faults
// with bounded error.

#ifndef SRC_ENERGY_TELEMETRY_GUARD_H_
#define SRC_ENERGY_TELEMETRY_GUARD_H_

#include <optional>

#include "src/sim/time.h"

namespace odenergy {

// What one reading means to the director.
struct TelemetryVerdict {
  // Valid: the reading may feed the cross-check and the predictor.
  bool usable = false;
  // This reading tripped safe mode (the director engages its clamp).
  bool safe_mode_entered = false;
  // This reading completed the recovery streak; the director lifts safe
  // mode once it has finished with the sample.
  bool safe_mode_lifted = false;
};

class TelemetryGuard {
 public:
  // A power reading is invalid when non-finite, negative, or above this
  // bound; no state of the modeled hardware draws anywhere near it, so a
  // larger value can only be a telemetry fault (e.g. gauge drift).
  static constexpr double kMaxPlausibleWatts = 15.0;
  // Consecutive invalid readings that trip safe mode: one reject is a
  // glitch, three in a row (0.3 s at 10 Hz) are a fault.
  static constexpr int kInvalidSampleLimit = 3;
  // A telemetry gap — no valid sample for this many sampling periods —
  // trips safe mode at the next evaluation.  A missed sample or two is a
  // dropout the gap bridge covers; a longer silence is a dead feed.
  static constexpr double kTimeoutPeriods = 4.0;
  // Consecutive valid readings before safe mode lifts (recovery
  // hysteresis, mirroring the viceroy's link-outage clamp).
  static constexpr int kRecoverySamples = 8;

  // `stale_sample_limit`: consecutive bit-identical readings before the
  // feed is declared frozen; 0 disables (GoalDirectorConfig).
  explicit TelemetryGuard(int stale_sample_limit)
      : stale_sample_limit_(stale_sample_limit) {}

  // The silence watchdog measures from `now` until the first valid sample.
  void Start(odsim::SimTime now) { start_time_ = now; }

  // Judges one delivered reading covering the `period_seconds` before
  // `now`.  `smoothed_watts` is the demand predictor's rate *before* this
  // sample: rejected finite readings are re-counted at it, and gaps before
  // a valid one are bridged at it.
  TelemetryVerdict OnSample(odsim::SimTime now, double watts,
                            double period_seconds, double smoothed_watts);
  // Silence watchdog: a silent feed produces no samples for OnSample to
  // reject, so silence is checked at each evaluation against the
  // monitor's sampling period.  Enters safe mode and returns true when the
  // feed has been silent too long.
  bool SilenceTripsSafeMode(odsim::SimTime now, double period_seconds);
  // Closes the safe-mode episode the last verdict reported lifted.
  void ExitSafeMode(odsim::SimTime now);

  bool safe_mode() const { return safe_mode_; }
  // A below-limit streak of invalid or repeated readings is in progress.
  bool suspect() const {
    return consecutive_invalid_ > 0 || identical_streak_ > 0;
  }
  // Distinct safe-mode episodes so far.
  int safe_mode_entries() const { return safe_mode_entries_; }
  // Cumulative time spent in safe mode up to `now` (open episode included).
  double SafeModeSeconds(odsim::SimTime now) const;
  // Readings rejected as invalid (non-finite, negative, implausible, or
  // frozen past the stale limit).
  int invalid_samples() const { return invalid_samples_; }
  // Telemetry gaps bridged (distinct spans with no valid sample).
  int telemetry_gaps() const { return telemetry_gaps_; }
  // Net correction to the residual estimate for energy the monitor missed
  // (gaps, positive debit) or miscounted (implausible readings, either
  // sign).
  double debit_joules() const { return debit_joules_; }

 private:
  void EnterSafeMode(odsim::SimTime now);

  const int stale_sample_limit_;
  odsim::SimTime start_time_ = odsim::SimTime::Zero();
  // Unset until the first valid sample.
  std::optional<odsim::SimTime> last_valid_sample_time_;
  // Last sample the monitor integrated, valid or not: finite rejected
  // readings are integrated then re-counted, so the gap bridge must not
  // cover them again.
  odsim::SimTime last_integrated_time_ = odsim::SimTime::Zero();
  double last_valid_watts_ = 0.0;
  int consecutive_invalid_ = 0;
  int identical_streak_ = 0;
  int recovery_streak_ = 0;
  int invalid_samples_ = 0;
  int telemetry_gaps_ = 0;
  bool safe_mode_ = false;
  int safe_mode_entries_ = 0;
  double safe_mode_seconds_ = 0.0;
  odsim::SimTime safe_mode_entered_ = odsim::SimTime::Zero();
  double debit_joules_ = 0.0;
};

}  // namespace odenergy

#endif  // SRC_ENERGY_TELEMETRY_GUARD_H_
