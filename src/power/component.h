// Base class for power-drawing hardware components.
//
// A component is a named state machine; each state has a power draw in
// watts.  State changes notify the owning Machine so that energy accounting
// can integrate exactly over state residency.  Subclasses may additionally
// report a continuously variable power (e.g. the zoned-backlight display),
// in which case they call NotifyPowerChanged() whenever their draw moves.

#ifndef SRC_POWER_COMPONENT_H_
#define SRC_POWER_COMPONENT_H_

#include <string>
#include <vector>

namespace odpower {

class Machine;

// Components drawing more than this are "active" for the purposes of the
// measured superlinearity of total system power (see Machine::TotalPower).
inline constexpr double kActiveThresholdWatts = 0.5;

// Most components one Machine holds: the laptop has five, plus the smart
// battery's monitor circuit when it has an overhead draw.
inline constexpr int kMaxComponents = 8;

class Component {
 public:
  Component(std::string name, std::vector<double> state_powers, int initial_state);
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  const std::string& name() const { return name_; }
  int state() const { return state_; }
  int state_count() const { return static_cast<int>(state_powers_.size()); }

  // Current draw in watts.  Subclasses may override to report a draw that is
  // not a pure function of the discrete state.
  virtual double power() const { return state_powers_[static_cast<size_t>(state_)]; }

  // Table draw of `state`, whether or not it is current.  Subclasses with
  // continuously variable draw (zoned display, scaled CPU) may deviate from
  // the table at runtime; this is the calibration value.
  double state_power(int state) const {
    return state_powers_[static_cast<size_t>(state)];
  }

  // Moves to the given state and notifies the machine if the draw changed.
  void SetState(int new_state);

 protected:
  // For subclasses whose power() varies without a state change.
  void NotifyPowerChanged();

  double StatePower(int state) const {
    return state_powers_[static_cast<size_t>(state)];
  }

 private:
  friend class Machine;

  std::string name_;
  std::vector<double> state_powers_;
  int state_;
  Machine* machine_ = nullptr;  // Set when attached to a Machine.
  int index_ = -1;              // Attach index on machine_.
};

}  // namespace odpower

#endif  // SRC_POWER_COMPONENT_H_
