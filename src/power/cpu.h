// CPU power model.
//
// The 233 MHz Pentium draws extra power only while executing; the kernel
// idle loop executes hlt, dropping the incremental CPU draw to zero (the
// baseline motherboard draw lives in the "Other" component).  The Cpu
// component observes the simulator's scheduler so that its state always
// matches whether real work is executing.
//
// Clock/voltage scaling (the "slowing the CPU" power-management technique
// the paper cites) is supported: at speed s the busy draw scales as
// s^exponent (exponent 3 models combined voltage and frequency scaling,
// P ∝ V²f with V ∝ f).  Pair with Simulator::set_cpu_speed so that work
// slows down coherently.

#ifndef SRC_POWER_CPU_H_
#define SRC_POWER_CPU_H_

#include <cmath>

#include "src/power/component.h"
#include "src/sim/simulator.h"

namespace odpower {

enum class CpuState : int {
  kBusy = 0,
  kHalt = 1,
};

class Cpu final : public Component, public odsim::CpuObserver {
 public:
  explicit Cpu(double busy_watts, double scaling_exponent = 3.0)
      : Component("CPU", {busy_watts, 0.0}, static_cast<int>(CpuState::kHalt)),
        scaling_exponent_(scaling_exponent) {}

  void OnCpuContextSwitch(odsim::SimTime /*now*/, odsim::ProcessId /*pid*/,
                          odsim::ProcedureId /*proc*/, bool busy) override {
    SetState(static_cast<int>(busy ? CpuState::kBusy : CpuState::kHalt));
  }

  CpuState cpu_state() const { return static_cast<CpuState>(state()); }

  // Clock scaling: fraction of nominal frequency.
  void SetSpeed(double speed) {
    speed_ = speed;
    NotifyPowerChanged();
  }

  double power() const override {
    if (cpu_state() != CpuState::kBusy) {
      return 0.0;
    }
    return Component::power() * std::pow(speed_, scaling_exponent_);
  }

 private:
  double scaling_exponent_;
  double speed_ = 1.0;
};

// The always-on remainder of the machine: motherboard, memory, chipset.
class OtherComponent : public Component {
 public:
  explicit OtherComponent(double watts) : Component("Other", {watts}, 0) {}
};

}  // namespace odpower

#endif  // SRC_POWER_CPU_H_
