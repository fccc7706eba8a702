#include "src/powerscope/profile.h"

#include <algorithm>
#include <cstdio>

#include "src/util/check.h"

namespace odscope {
namespace {

void AppendEntryRow(std::string& out, const ProfileEntry& entry, bool name_first) {
  char buf[256];
  if (name_first) {
    std::snprintf(buf, sizeof(buf), "%-36s %10.2f %14.2f %12.2f\n",
                  entry.name.c_str(), entry.cpu_seconds, entry.joules,
                  entry.average_watts);
  } else {
    std::snprintf(buf, sizeof(buf), "%10.2f %14.2f %12.2f   %s\n", entry.cpu_seconds,
                  entry.joules, entry.average_watts, entry.name.c_str());
  }
  out += buf;
}

}  // namespace

EnergyProfile::EnergyProfile(std::vector<ProcessProfile> processes,
                             double total_seconds)
    : processes_(std::move(processes)), total_seconds_(total_seconds) {
  std::sort(processes_.begin(), processes_.end(),
            [](const ProcessProfile& a, const ProcessProfile& b) {
              return a.summary.joules > b.summary.joules;
            });
  for (ProcessProfile& process : processes_) {
    std::sort(process.procedures.begin(), process.procedures.end(),
              [](const ProfileEntry& a, const ProfileEntry& b) {
                return a.joules > b.joules;
              });
  }
}

double EnergyProfile::TotalJoules() const {
  double total = 0.0;
  for (const ProcessProfile& p : processes_) {
    total += p.summary.joules;
  }
  return total;
}

double EnergyProfile::ProcessJoules(const std::string& name) const {
  for (const ProcessProfile& p : processes_) {
    if (p.summary.name == name) {
      return p.summary.joules;
    }
  }
  return 0.0;
}

std::string EnergyProfile::Format(const std::string& detail_process) const {
  std::string out;
  out += "Process                               CPU Time(s) Total Energy(J) Avg Power(W)\n";
  out += "------------------------------------------------------------------------------\n";
  ProfileEntry total;
  total.name = "Total";
  for (const ProcessProfile& p : processes_) {
    AppendEntryRow(out, p.summary, /*name_first=*/true);
    total.cpu_seconds += p.summary.cpu_seconds;
    total.joules += p.summary.joules;
  }
  out += "------------------------------------------------------------------------------\n";
  total.average_watts = total_seconds_ > 0.0 ? total.joules / total_seconds_ : 0.0;
  AppendEntryRow(out, total, /*name_first=*/true);

  const ProcessProfile* detail = nullptr;
  if (detail_process.empty()) {
    detail = processes_.empty() ? nullptr : &processes_.front();
  } else {
    for (const ProcessProfile& p : processes_) {
      if (p.summary.name == detail_process) {
        detail = &p;
        break;
      }
    }
  }
  if (detail != nullptr && !detail->procedures.empty()) {
    out += "\nEnergy Usage Detail for process " + detail->summary.name + "\n";
    out += "CPU Time(s) Total Energy(J) Avg Power(W)   Procedure\n";
    out += "------------------------------------------------------------------------------\n";
    for (const ProfileEntry& proc : detail->procedures) {
      AppendEntryRow(out, proc, /*name_first=*/false);
    }
  }
  return out;
}

}  // namespace odscope
