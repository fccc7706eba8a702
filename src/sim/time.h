// Simulated time.
//
// SimTime is a strong integer type counting microseconds since the start of
// the simulation.  Using integer ticks (not doubles) keeps event ordering
// exact and the simulation bit-for-bit deterministic.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <compare>
#include <cstdint>

#include "src/util/check.h"

namespace odsim {

class SimTime {
 public:
  constexpr SimTime() = default;

  static constexpr SimTime Micros(int64_t us) { return SimTime(us); }
  static constexpr SimTime Millis(int64_t ms) { return SimTime(ms * 1000); }
  static constexpr SimTime Seconds(double s) {
    return SimTime(static_cast<int64_t>(s * 1e6 + (s >= 0 ? 0.5 : -0.5)));
  }
  static constexpr SimTime Minutes(double m) { return Seconds(m * 60.0); }
  static constexpr SimTime Zero() { return SimTime(0); }
  static constexpr SimTime Max() { return SimTime(INT64_MAX); }

  constexpr int64_t micros() const { return us_; }
  constexpr double seconds() const { return static_cast<double>(us_) * 1e-6; }

  constexpr bool operator==(const SimTime&) const = default;
  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimTime other) const { return SimTime(us_ + other.us_); }
  constexpr SimTime operator-(SimTime other) const { return SimTime(us_ - other.us_); }
  SimTime& operator-=(SimTime other) {
    us_ -= other.us_;
    return *this;
  }
  constexpr SimTime operator*(double k) const {
    return SimTime(static_cast<int64_t>(static_cast<double>(us_) * k + 0.5));
  }

 private:
  explicit constexpr SimTime(int64_t us) : us_(us) {}

  int64_t us_ = 0;
};

// A duration is represented by the same type; the distinction is positional
// (Schedule() takes a delay, ScheduleAt() takes an absolute time).
using SimDuration = SimTime;

}  // namespace odsim

#endif  // SRC_SIM_TIME_H_
