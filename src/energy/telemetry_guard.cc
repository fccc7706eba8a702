#include "src/energy/telemetry_guard.h"

#include <algorithm>
#include <cmath>

namespace odenergy {

TelemetryVerdict TelemetryGuard::OnSample(odsim::SimTime now, double watts,
                                          double period_seconds,
                                          double smoothed_watts) {
  TelemetryVerdict verdict;
  bool valid = std::isfinite(watts) && watts >= 0.0 &&
               watts <= kMaxPlausibleWatts;
  // Frozen-feed detection: a wedged driver repeats its last reading
  // bit-for-bit, which a noisy physical source never does.  Disabled when
  // stale_sample_limit is 0 (quantized gauges repeat legitimately).
  if (valid && stale_sample_limit_ > 0) {
    if (last_valid_sample_time_.has_value() && watts == last_valid_watts_) {
      ++identical_streak_;
      if (identical_streak_ >= stale_sample_limit_) {
        valid = false;
      }
    } else {
      identical_streak_ = 0;
    }
  }

  if (!valid) {
    ++invalid_samples_;
    ++consecutive_invalid_;
    recovery_streak_ = 0;
    // A finite-but-rejected reading was integrated by the monitor at face
    // value; re-count that interval at the smoothed demand rate so one
    // drifting gauge cannot drag the residual estimate arbitrarily far.
    // The debit is subtracted from the estimate, so backing out an
    // over-reading means a negative contribution.
    if (std::isfinite(watts)) {
      debit_joules_ += (smoothed_watts - watts) * period_seconds;
      // The interval is now fully accounted (integrated by the monitor,
      // re-counted here), so the gap bridge must not cover it again.
      last_integrated_time_ = now;
    }
    if (!safe_mode_ && consecutive_invalid_ >= kInvalidSampleLimit) {
      EnterSafeMode(now);
      verdict.safe_mode_entered = true;
    }
    return verdict;
  }

  // Bridge any gap the monitor could not integrate over (dropped or NaN
  // samples) at the smoothed demand rate.  The last period before this
  // sample is covered by the monitor's own integration of it.  The gap is
  // measured from the last *integrated* sample — finite-but-rejected
  // readings were integrated (and re-counted above), so they do not leave
  // a hole.
  if (last_valid_sample_time_.has_value()) {
    double gap = (now - last_integrated_time_).seconds();
    if (gap > 1.5 * period_seconds) {
      debit_joules_ += smoothed_watts * std::max(0.0, gap - period_seconds);
      ++telemetry_gaps_;
    }
  }
  last_valid_sample_time_ = now;
  last_integrated_time_ = now;
  last_valid_watts_ = watts;
  consecutive_invalid_ = 0;
  verdict.usable = true;
  verdict.safe_mode_lifted =
      safe_mode_ && ++recovery_streak_ >= kRecoverySamples;
  return verdict;
}

bool TelemetryGuard::SilenceTripsSafeMode(odsim::SimTime now,
                                          double period_seconds) {
  if (safe_mode_) {
    return false;
  }
  odsim::SimTime last_heard = last_valid_sample_time_.value_or(start_time_);
  if ((now - last_heard).seconds() <= kTimeoutPeriods * period_seconds) {
    return false;
  }
  EnterSafeMode(now);
  return true;
}

void TelemetryGuard::EnterSafeMode(odsim::SimTime now) {
  safe_mode_ = true;
  ++safe_mode_entries_;
  safe_mode_entered_ = now;
  recovery_streak_ = 0;
}

void TelemetryGuard::ExitSafeMode(odsim::SimTime now) {
  safe_mode_ = false;
  safe_mode_seconds_ += (now - safe_mode_entered_).seconds();
  consecutive_invalid_ = 0;
  identical_streak_ = 0;
}

double TelemetryGuard::SafeModeSeconds(odsim::SimTime now) const {
  double total = safe_mode_seconds_;
  if (safe_mode_) {
    total += (now - safe_mode_entered_).seconds();
  }
  return total;
}

}  // namespace odenergy
