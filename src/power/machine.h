// The simulated mobile computer: a set of power-drawing components plus the
// measured superlinearity of whole-system draw.
//
// The paper observes that total power is "slightly but consistently
// superlinear" in the component powers (0.21 W above the sum with four
// components active); we model this as a fixed increment per active
// component beyond the first, which reproduces both the 5.6 W background
// figure and the 0.21 W four-component excess.

#ifndef SRC_POWER_MACHINE_H_
#define SRC_POWER_MACHINE_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/power/component.h"
#include "src/sim/simulator.h"

namespace odpower {

class MachineObserver {
 public:
  virtual ~MachineObserver() = default;

  // Called after any component's draw changes, timestamped with sim time.
  virtual void OnMachinePowerChanged(odsim::SimTime now) = 0;
};

class Machine {
 public:
  // `synergy_watts_per_extra_active` models the superlinearity (see above).
  Machine(odsim::Simulator* sim, double synergy_watts_per_extra_active);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Attaches a component; the machine takes ownership.  Returns a typed
  // pointer for convenience.
  template <typename T>
  T* AddComponent(std::unique_ptr<T> component) {
    T* raw = component.get();
    Attach(std::move(component));
    return raw;
  }

  // Total instantaneous draw: sum of components plus the superlinear term.
  // A field read: every draw change funnels through OnComponentPowerChanged
  // (SetState / NotifyPowerChanged), which stores the component's new draw
  // and re-sums the snapshot in attach order before notifying observers.
  double TotalPower() const { return total_watts_; }

  // Superlinear excess alone (for accounting: it is not attributable to any
  // single component).
  double SynergyPower() const { return synergy_watts_; }

  // Draw of each component as of its last change, by attach index; entries
  // at and past component_count() are zero.
  const std::array<double, kMaxComponents>& component_watts() const {
    return component_watts_;
  }

  int component_count() const { return static_cast<int>(components_.size()); }
  Component& component(int index) { return *components_[static_cast<size_t>(index)]; }
  const Component& component(int index) const {
    return *components_[static_cast<size_t>(index)];
  }

  // Finds a component by name; null if absent.
  Component* FindComponent(const std::string& name);

  // Observers are not owned and must outlive the simulation run.
  void AddObserver(MachineObserver* observer);

  odsim::Simulator* sim() { return sim_; }

 private:
  friend class Component;

  void Attach(std::unique_ptr<Component> component);

  // Called by the component at attach index `index` when its draw changes
  // to `watts`.
  void OnComponentPowerChanged(int index, double watts);

  odsim::Simulator* sim_;
  double synergy_per_extra_active_;
  std::vector<std::unique_ptr<Component>> components_;
  std::vector<MachineObserver*> observers_;
  std::array<double, kMaxComponents> component_watts_{};
  double synergy_watts_ = 0.0;
  double total_watts_ = 0.0;
};

}  // namespace odpower

#endif  // SRC_POWER_MACHINE_H_
