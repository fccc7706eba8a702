// The telemetry guard on its own, without a simulator: readings are fed
// straight into TelemetryGuard::OnSample at a 10 Hz cadence, with the
// predictor's smoothed rate supplied by the test (DESIGN.md §7).

#include "src/energy/telemetry_guard.h"

#include <limits>

#include <gtest/gtest.h>

namespace odenergy {
namespace {

constexpr double kPeriod = 0.1;
constexpr double kSmoothedWatts = 10.0;
const double kNan = std::numeric_limits<double>::quiet_NaN();

// Sample number `n` of the 10 Hz feed.
odsim::SimTime At(int n) { return odsim::SimTime::Millis(100 * n); }

TelemetryVerdict Feed(TelemetryGuard& guard, int n, double watts) {
  return guard.OnSample(At(n), watts, kPeriod, kSmoothedWatts);
}

// The double-charge guard: a finite reading rejected as implausible was
// integrated by the monitor and is re-counted by the guard, so the gap
// bridge must not charge its interval a third time.  A NaN reading, which
// the monitor could not integrate, does leave a hole to bridge.
TEST(TelemetryGuardTest, FiniteRejectedSampleLeavesNoHoleForTheGapBridge) {
  TelemetryGuard guard(/*stale_sample_limit=*/0);
  guard.Start(At(0));
  EXPECT_TRUE(Feed(guard, 1, 10.0).usable);
  EXPECT_TRUE(Feed(guard, 2, 10.0).usable);
  // 20 W is past kMaxPlausibleWatts: re-counted at the smoothed 10 W.
  EXPECT_FALSE(Feed(guard, 3, 20.0).usable);
  EXPECT_DOUBLE_EQ(guard.debit_joules(), (10.0 - 20.0) * kPeriod);
  EXPECT_TRUE(Feed(guard, 4, 10.0).usable);
  EXPECT_EQ(guard.telemetry_gaps(), 0);
  EXPECT_DOUBLE_EQ(guard.debit_joules(), (10.0 - 20.0) * kPeriod);

  EXPECT_FALSE(Feed(guard, 5, kNan).usable);
  EXPECT_TRUE(Feed(guard, 6, 10.0).usable);
  EXPECT_EQ(guard.telemetry_gaps(), 1);
  // The missing 100 ms bridged at 10 W cancels the earlier -1 J re-count.
  EXPECT_NEAR(guard.debit_joules(), 0.0, 1e-9);
  EXPECT_EQ(guard.invalid_samples(), 2);
}

TEST(TelemetryGuardTest, InvalidStreakTripsSafeModeAndValidStreakLiftsIt) {
  TelemetryGuard guard(/*stale_sample_limit=*/0);
  guard.Start(At(0));
  EXPECT_TRUE(Feed(guard, 1, 10.0).usable);
  EXPECT_FALSE(guard.suspect());

  for (int n = 2; n < 2 + TelemetryGuard::kInvalidSampleLimit - 1; ++n) {
    TelemetryVerdict verdict = Feed(guard, n, -1.0);
    EXPECT_FALSE(verdict.usable);
    EXPECT_FALSE(verdict.safe_mode_entered);
    EXPECT_TRUE(guard.suspect());
  }
  const int tripped = 1 + TelemetryGuard::kInvalidSampleLimit;
  EXPECT_TRUE(Feed(guard, tripped, -1.0).safe_mode_entered);
  EXPECT_TRUE(guard.safe_mode());
  int n = tripped + 1;
  EXPECT_FALSE(Feed(guard, n, -1.0).safe_mode_entered);  // One episode.
  EXPECT_EQ(guard.safe_mode_entries(), 1);

  for (int i = 1; i < TelemetryGuard::kRecoverySamples; ++i) {
    TelemetryVerdict verdict = Feed(guard, ++n, 10.0);
    EXPECT_TRUE(verdict.usable);
    EXPECT_FALSE(verdict.safe_mode_lifted);
  }
  EXPECT_TRUE(Feed(guard, ++n, 10.0).safe_mode_lifted);
  // Safe mode stands until the director has finished with the sample.
  EXPECT_TRUE(guard.safe_mode());
  guard.ExitSafeMode(At(n));
  EXPECT_FALSE(guard.safe_mode());
  EXPECT_FALSE(guard.suspect());
  EXPECT_NEAR(guard.SafeModeSeconds(At(n + 50)),
              (At(n) - At(tripped)).seconds(), 1e-9);
}

TEST(TelemetryGuardTest, SilenceTripsSafeModeOnce) {
  TelemetryGuard guard(/*stale_sample_limit=*/0);
  guard.Start(At(10));
  // Silence is measured from Start until the first valid sample.
  EXPECT_FALSE(guard.SilenceTripsSafeMode(At(13), kPeriod));
  EXPECT_TRUE(guard.SilenceTripsSafeMode(At(15), kPeriod));
  EXPECT_FALSE(guard.SilenceTripsSafeMode(At(20), kPeriod));  // Already in.
  EXPECT_EQ(guard.safe_mode_entries(), 1);
}

TEST(TelemetryGuardTest, FrozenFeedIsSuspectThenInvalid) {
  TelemetryGuard guard(/*stale_sample_limit=*/3);
  guard.Start(At(0));
  EXPECT_TRUE(Feed(guard, 1, 9.5).usable);
  EXPECT_TRUE(Feed(guard, 2, 9.5).usable);
  EXPECT_TRUE(guard.suspect());  // A repeat: below the limit, suspect.
  EXPECT_TRUE(Feed(guard, 3, 9.5).usable);
  EXPECT_FALSE(Feed(guard, 4, 9.5).usable);  // Third repeat: frozen.
  EXPECT_EQ(guard.invalid_samples(), 1);
  EXPECT_TRUE(Feed(guard, 5, 9.6).usable);
  EXPECT_FALSE(guard.suspect());
}

}  // namespace
}  // namespace odenergy
