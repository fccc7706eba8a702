#include "src/powerscope/profiler.h"

#include <map>
#include <utility>

#include "src/util/check.h"

namespace odscope {

Profiler::Profiler(odsim::Simulator* sim, odpower::Machine* machine,
                   const MultimeterConfig& config, uint64_t noise_seed)
    : sim_(sim), multimeter_(sim, machine, config, noise_seed) {
  multimeter_.set_trigger([this](odsim::SimTime now) {
    monitor_samples_.push_back(
        MonitorSample{now, sim_->current_pid(), sim_->current_proc()});
  });
}

void Profiler::Start() {
  start_ = sim_->Now();
  multimeter_.Start();
}

void Profiler::Stop() {
  stop_ = sim_->Now();
  multimeter_.Stop();
}

void Profiler::ClearSamples() {
  multimeter_.ClearSamples();
  monitor_samples_.clear();
}

double Profiler::SampledJoules() const {
  const std::vector<CurrentSample>& samples = multimeter_.samples();
  double dt = 1.0 / Multimeter::kSampleRateHz;
  double joules = 0.0;
  for (const CurrentSample& s : samples) {
    joules += s.amps * Multimeter::kSupplyVolts * dt;
  }
  return joules;
}

EnergyProfile Profiler::Correlate() const {
  const std::vector<CurrentSample>& currents = multimeter_.samples();
  OD_CHECK(currents.size() == monitor_samples_.size());

  struct Accum {
    double cpu_seconds = 0.0;
    double residency_seconds = 0.0;
    double joules = 0.0;
  };
  // (pid, proc) -> accumulator; proc == -1 keys the per-process summary.
  std::map<std::pair<odsim::ProcessId, odsim::ProcedureId>, Accum> accum;

  double volts = Multimeter::kSupplyVolts;
  for (size_t i = 0; i < currents.size(); ++i) {
    // Each sample covers the interval to the next sample (trailing samples
    // cover one nominal period).
    double dt = i + 1 < currents.size()
                    ? (currents[i + 1].time - currents[i].time).seconds()
                    : 1.0 / Multimeter::kSampleRateHz;
    double joules = currents[i].amps * volts * dt;
    const MonitorSample& ctx = monitor_samples_[i];
    double cpu = ctx.pid == odsim::kIdlePid ? 0.0 : dt;

    Accum& summary = accum[{ctx.pid, -1}];
    summary.joules += joules;
    summary.cpu_seconds += cpu;
    summary.residency_seconds += dt;
    Accum& detail = accum[{ctx.pid, ctx.proc}];
    detail.joules += joules;
    detail.cpu_seconds += cpu;
    detail.residency_seconds += dt;
  }

  const odsim::ProcessTable& processes = sim_->processes();
  std::vector<ProcessProfile> out;
  for (const auto& [key, value] : accum) {
    auto [pid, proc] = key;
    if (proc != -1) {
      continue;
    }
    ProcessProfile profile;
    profile.pid = pid;
    profile.summary.name = processes.ProcessName(pid);
    profile.summary.cpu_seconds = value.cpu_seconds;
    profile.summary.joules = value.joules;
    // Average power while this process was resident on the CPU (the idle
    // loop counts residency but not CPU time).
    profile.summary.average_watts = value.residency_seconds > 0.0
                                        ? value.joules / value.residency_seconds
                                        : 0.0;

    for (const auto& [k2, v2] : accum) {
      if (k2.first != pid || k2.second == -1) {
        continue;
      }
      ProfileEntry entry;
      entry.name = processes.ProcedureName(k2.second);
      entry.cpu_seconds = v2.cpu_seconds;
      entry.joules = v2.joules;
      entry.average_watts =
          v2.residency_seconds > 0.0 ? v2.joules / v2.residency_seconds : 0.0;
      profile.procedures.push_back(std::move(entry));
    }
    out.push_back(std::move(profile));
  }

  return EnergyProfile(std::move(out), (stop_ - start_).seconds());
}

}  // namespace odscope
