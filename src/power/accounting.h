// Analytic energy accounting.
//
// Integrates machine power exactly over component-state residency and CPU
// context residency.  This is the simulation's ground truth; PowerScope's
// statistical sampler (src/powerscope) must agree with it to within sampling
// error, which is checked by a property test.
//
// Attribution follows PowerScope semantics: at every instant the *entire*
// system draw is attributed to the (process, procedure) executing on the
// CPU — the kernel idle loop when nothing runs.

#ifndef SRC_POWER_ACCOUNTING_H_
#define SRC_POWER_ACCOUNTING_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/power/machine.h"
#include "src/sim/simulator.h"

namespace odpower {

struct ContextUsage {
  double cpu_seconds = 0.0;
  double joules = 0.0;
};

class EnergyAccounting final : public MachineObserver, public odsim::CpuObserver {
 public:
  // Registers itself as an observer of both the machine and the simulator.
  explicit EnergyAccounting(Machine* machine);

  // Integrates up to `now`.  Safe to call at any time; idempotent for a
  // fixed `now`.
  void AccrueTo(odsim::SimTime now);

  // Total system energy since construction (or the last Reset).
  double TotalJoules(odsim::SimTime now);

  // Per-component energy; index matches Machine::component().
  double ComponentJoules(int index, odsim::SimTime now);

  // Energy of the superlinear excess, not attributable to one component.
  double SynergyJoules(odsim::SimTime now);

  // Per-process and per-procedure attribution.
  ContextUsage ProcessUsage(odsim::ProcessId pid, odsim::SimTime now);
  ContextUsage ProcedureUsage(odsim::ProcessId pid, odsim::ProcedureId proc,
                              odsim::SimTime now);

  // All processes that have accrued anything, in pid order.
  std::vector<odsim::ProcessId> Processes(odsim::SimTime now);

  // Zeroes all accumulators and restarts integration at `now`.
  void Reset(odsim::SimTime now);

  // MachineObserver:
  void OnMachinePowerChanged(odsim::SimTime now) override;

  // odsim::CpuObserver:
  void OnCpuContextSwitch(odsim::SimTime now, odsim::ProcessId pid,
                          odsim::ProcedureId proc, bool busy) override;

  Machine* machine() const { return machine_; }

 private:
  static uint64_t ContextKey(odsim::ProcessId pid, odsim::ProcedureId proc) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(pid)) << 32) |
           static_cast<uint32_t>(proc);
  }

  // Copies the machine's draw snapshot for the interval that starts now.
  void Resnapshot();

  Machine* machine_;
  odsim::SimTime last_time_;

  // Per-component draw over the interval being integrated, and the energy
  // accrued so far; index matches Machine::component().
  struct ComponentSlot {
    double watts = 0.0;
    double joules = 0.0;
  };
  std::array<ComponentSlot, kMaxComponents> components_{};
  int component_count_ = 0;

  // Snapshot of the other draws and the CPU context.
  double snapshot_synergy_watts_ = 0.0;
  double snapshot_total_watts_ = 0.0;
  odsim::ProcessId snapshot_pid_ = odsim::kIdlePid;
  odsim::ProcedureId snapshot_proc_ = odsim::kIdleProc;

  // Accumulators.
  double total_joules_ = 0.0;
  double synergy_joules_ = 0.0;
  // The idle context (kIdlePid, kIdleProc) accrues inline: a device that
  // runs no CPU work never touches the maps below.  `idle_accrued_` is set
  // exactly when the idle loop has accrued time since the last Reset.
  ContextUsage idle_;
  bool idle_accrued_ = false;
  // Real processes only.
  std::unordered_map<odsim::ProcessId, ContextUsage> by_process_;
  std::unordered_map<uint64_t, ContextUsage> by_context_;

  // Map entries for the snapshot context when it is a real process, refilled
  // lazily after a context switch or Reset.  Element pointers into
  // unordered_map survive rehashing, so these stay valid until the maps are
  // cleared.
  ContextUsage* cached_process_ = nullptr;
  ContextUsage* cached_context_ = nullptr;
};

}  // namespace odpower

#endif  // SRC_POWER_ACCOUNTING_H_
