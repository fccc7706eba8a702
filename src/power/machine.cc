#include "src/power/machine.h"

#include <utility>

#include "src/util/check.h"

namespace odpower {

Machine::Machine(odsim::Simulator* sim, double synergy_watts_per_extra_active)
    : sim_(sim), synergy_per_extra_active_(synergy_watts_per_extra_active) {
  OD_CHECK(sim != nullptr);
  OD_CHECK(synergy_per_extra_active_ >= 0.0);
}

void Machine::Attach(std::unique_ptr<Component> component) {
  OD_CHECK(component != nullptr);
  OD_CHECK(component->machine_ == nullptr);
  OD_CHECK(component_count() < kMaxComponents);
  Component* raw = component.get();
  raw->machine_ = this;
  raw->index_ = component_count();
  components_.push_back(std::move(component));
  OnComponentPowerChanged(raw->index_, raw->power());
}

Component* Machine::FindComponent(const std::string& name) {
  for (const auto& c : components_) {
    if (c->name() == name) {
      return c.get();
    }
  }
  return nullptr;
}

void Machine::AddObserver(MachineObserver* observer) {
  OD_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Machine::OnComponentPowerChanged(int index, double watts) {
  component_watts_[static_cast<size_t>(index)] = watts;
  // Re-sum before notifying (observers commonly read TotalPower()), in
  // attach order so the total is the same double a plain loop over
  // Component::power() gives.
  double sum = 0.0;
  int active = 0;
  for (size_t i = 0; i < components_.size(); ++i) {
    sum += component_watts_[i];
    if (component_watts_[i] > kActiveThresholdWatts) {
      ++active;
    }
  }
  synergy_watts_ =
      active > 1 ? synergy_per_extra_active_ * static_cast<double>(active - 1) : 0.0;
  total_watts_ = sum + synergy_watts_;
  for (MachineObserver* observer : observers_) {
    observer->OnMachinePowerChanged(sim_->Now());
  }
}

}  // namespace odpower
