// Energy profiles (the output of PowerScope's offline analysis stage).
//
// A profile maps energy to software components: a summary table by process
// and a detail table by procedure within each process, exactly the format of
// Figure 2 in the paper.

#ifndef SRC_POWERSCOPE_PROFILE_H_
#define SRC_POWERSCOPE_PROFILE_H_

#include <string>
#include <vector>

#include "src/sim/process.h"

namespace odscope {

struct ProfileEntry {
  std::string name;
  double cpu_seconds = 0.0;
  double joules = 0.0;
  // Average power while this entry's code was executing.
  double average_watts = 0.0;
};

struct ProcessProfile {
  odsim::ProcessId pid = 0;
  ProfileEntry summary;
  // Per-procedure detail, sorted by descending energy.
  std::vector<ProfileEntry> procedures;
};

class EnergyProfile {
 public:
  EnergyProfile(std::vector<ProcessProfile> processes, double total_seconds);

  // Processes sorted by descending energy.
  const std::vector<ProcessProfile>& processes() const { return processes_; }

  double TotalJoules() const;

  // Energy attributed to a process by name; zero if absent.
  double ProcessJoules(const std::string& name) const;

  // Renders the two-table format of Figure 2.  `detail_process` selects which
  // process gets the per-procedure table (empty = the top consumer).
  std::string Format(const std::string& detail_process = "") const;

 private:
  std::vector<ProcessProfile> processes_;
  double total_seconds_;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_PROFILE_H_
