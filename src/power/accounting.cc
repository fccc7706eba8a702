#include "src/power/accounting.h"

#include <algorithm>

#include "src/util/check.h"

namespace odpower {

EnergyAccounting::EnergyAccounting(Machine* machine)
    : machine_(machine), last_time_(machine->sim()->Now()) {
  OD_CHECK(machine != nullptr);
  Resnapshot();
  machine_->AddObserver(this);
  machine_->sim()->AddCpuObserver(this);
  snapshot_pid_ = machine_->sim()->current_pid();
  snapshot_proc_ = machine_->sim()->current_proc();
}

void EnergyAccounting::Resnapshot() {
  component_count_ = machine_->component_count();
  const auto& watts = machine_->component_watts();
  for (size_t i = 0; i < components_.size(); ++i) {
    components_[i].watts = watts[i];
  }
  snapshot_synergy_watts_ = machine_->SynergyPower();
  snapshot_total_watts_ = machine_->TotalPower();
}

void EnergyAccounting::AccrueTo(odsim::SimTime now) {
  OD_CHECK(now >= last_time_);
  if (now == last_time_) {
    return;
  }
  double dt = (now - last_time_).seconds();
  last_time_ = now;

  total_joules_ += snapshot_total_watts_ * dt;
  synergy_joules_ += snapshot_synergy_watts_ * dt;
  for (int i = 0; i < component_count_; ++i) {
    ComponentSlot& slot = components_[static_cast<size_t>(i)];
    slot.joules += slot.watts * dt;
  }
  double joules = snapshot_total_watts_ * dt;
  if (snapshot_pid_ == odsim::kIdlePid) {
    idle_.joules += joules;
    idle_accrued_ = true;
    return;
  }
  if (cached_process_ == nullptr) {
    cached_process_ = &by_process_[snapshot_pid_];
    cached_context_ = &by_context_[ContextKey(snapshot_pid_, snapshot_proc_)];
  }
  cached_process_->joules += joules;
  cached_context_->joules += joules;
  cached_process_->cpu_seconds += dt;
  cached_context_->cpu_seconds += dt;
}

double EnergyAccounting::TotalJoules(odsim::SimTime now) {
  AccrueTo(now);
  return total_joules_;
}

double EnergyAccounting::ComponentJoules(int index, odsim::SimTime now) {
  AccrueTo(now);
  OD_CHECK(index >= 0 && index < component_count_);
  return components_[static_cast<size_t>(index)].joules;
}

double EnergyAccounting::SynergyJoules(odsim::SimTime now) {
  AccrueTo(now);
  return synergy_joules_;
}

ContextUsage EnergyAccounting::ProcessUsage(odsim::ProcessId pid, odsim::SimTime now) {
  AccrueTo(now);
  if (pid == odsim::kIdlePid) {
    return idle_;
  }
  auto it = by_process_.find(pid);
  return it == by_process_.end() ? ContextUsage{} : it->second;
}

ContextUsage EnergyAccounting::ProcedureUsage(odsim::ProcessId pid,
                                              odsim::ProcedureId proc,
                                              odsim::SimTime now) {
  AccrueTo(now);
  if (pid == odsim::kIdlePid) {
    return proc == odsim::kIdleProc ? idle_ : ContextUsage{};
  }
  auto it = by_context_.find(ContextKey(pid, proc));
  return it == by_context_.end() ? ContextUsage{} : it->second;
}

std::vector<odsim::ProcessId> EnergyAccounting::Processes(odsim::SimTime now) {
  AccrueTo(now);
  std::vector<odsim::ProcessId> pids;
  pids.reserve(by_process_.size() + 1);
  if (idle_accrued_) {
    pids.push_back(odsim::kIdlePid);
  }
  for (const auto& [pid, usage] : by_process_) {
    pids.push_back(pid);
  }
  std::sort(pids.begin(), pids.end());
  return pids;
}

void EnergyAccounting::Reset(odsim::SimTime now) {
  AccrueTo(now);
  total_joules_ = 0.0;
  synergy_joules_ = 0.0;
  for (ComponentSlot& slot : components_) {
    slot.joules = 0.0;
  }
  idle_ = ContextUsage{};
  idle_accrued_ = false;
  by_process_.clear();
  by_context_.clear();
  cached_process_ = nullptr;
  cached_context_ = nullptr;
}

void EnergyAccounting::OnMachinePowerChanged(odsim::SimTime now) {
  AccrueTo(now);
  Resnapshot();
}

void EnergyAccounting::OnCpuContextSwitch(odsim::SimTime now, odsim::ProcessId pid,
                                          odsim::ProcedureId proc, bool /*busy*/) {
  // The idle slot stands for the whole idle process, so the idle pid may
  // only ever run the idle procedure.
  OD_CHECK(pid != odsim::kIdlePid || proc == odsim::kIdleProc);
  AccrueTo(now);
  snapshot_pid_ = pid;
  snapshot_proc_ = proc;
  cached_process_ = nullptr;
  cached_context_ = nullptr;
}

}  // namespace odpower
