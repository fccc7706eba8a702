#include "src/power/component.h"

#include <utility>

#include "src/power/machine.h"
#include "src/util/check.h"

namespace odpower {

Component::Component(std::string name, std::vector<double> state_powers,
                     int initial_state)
    : name_(std::move(name)),
      state_powers_(std::move(state_powers)),
      state_(initial_state) {
  OD_CHECK(!state_powers_.empty());
  OD_CHECK(initial_state >= 0 && initial_state < state_count());
  for (double p : state_powers_) {
    OD_CHECK(p >= 0.0);
  }
}

void Component::SetState(int new_state) {
  OD_CHECK(new_state >= 0 && new_state < state_count());
  if (new_state == state_) {
    return;
  }
  state_ = new_state;
  NotifyPowerChanged();
}

void Component::NotifyPowerChanged() {
  if (machine_ != nullptr) {
    machine_->OnComponentPowerChanged(index_, power());
  }
}

}  // namespace odpower
