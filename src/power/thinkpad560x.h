// IBM ThinkPad 560X power model (Figure 4).
//
// Component draws were chosen so that the model reproduces the paper's
// published aggregates:
//   - background power (display dim, WaveLAN & disk in standby) = 5.60 W;
//   - total draw is superlinear in component draws: with the screen bright
//     and disk and network idle, the total exceeds the component sum by
//     0.21 W (modelled as +0.07 W per active component beyond the first);
//   - the display accounts for ~35% of background power.

#ifndef SRC_POWER_THINKPAD560X_H_
#define SRC_POWER_THINKPAD560X_H_

#include <memory>

#include "src/power/accounting.h"
#include "src/power/cpu.h"
#include "src/power/disk.h"
#include "src/power/display.h"
#include "src/power/machine.h"
#include "src/power/power_manager.h"
#include "src/power/wavelan.h"
#include "src/sim/simulator.h"

namespace odpower {

// Figure 4 component draws, in watts.
struct ThinkPad560XSpec {
  double display_bright = 2.95;
  double display_dim = 1.95;
  double wavelan_transmit = 1.65;
  double wavelan_receive = 1.40;
  double wavelan_idle = 0.88;
  double wavelan_standby = 0.18;
  double disk_access = 2.20;
  double disk_idle = 1.35;
  double disk_standby = 0.16;
  double disk_spinup = 3.00;
  double disk_spinup_seconds = 1.5;
  double cpu_busy = 6.00;
  double other = 3.24;
  double synergy_per_extra_active = 0.07;
};

// Returns the calibrated default spec.
ThinkPad560XSpec DefaultSpec();

// A fully wired laptop: machine + components + accounting + power manager.
class Laptop {
 public:
  Laptop(odsim::Simulator* sim, const ThinkPad560XSpec& spec);

  Machine& machine() { return machine_; }
  Display& display() { return *display_; }
  WaveLan& wavelan() { return *wavelan_; }
  Disk& disk() { return *disk_; }
  EnergyAccounting& accounting() { return accounting_; }
  PowerManager& power_manager() { return power_manager_; }
  const ThinkPad560XSpec& spec() const { return spec_; }

  // Background power in watts: display dim, network and disk in standby,
  // CPU halted.  Used as P_B in the think-time linear model (Figure 11).
  double BackgroundPowerWatts() const;

  // Sets the CPU clock to `speed` (fraction of nominal) coherently: the
  // scheduler slows work down and the CPU's busy draw scales down.
  void SetCpuSpeed(double speed);

 private:
  ThinkPad560XSpec spec_;
  Machine machine_;
  Display* display_;
  WaveLan* wavelan_;
  Disk* disk_;
  Cpu* cpu_;
  OtherComponent* other_;
  EnergyAccounting accounting_;
  PowerManager power_manager_;
};

std::unique_ptr<Laptop> MakeThinkPad560X(odsim::Simulator* sim);

}  // namespace odpower

#endif  // SRC_POWER_THINKPAD560X_H_
