// PowerScope: statistical energy profiler (Section 2.1).
//
// Data collection stage: the multimeter samples current; each sample
// triggers the system monitor, which records the PC (procedure) and PID of
// the code executing on the profiling computer.
//
// Offline stage: Correlate() walks the two sample streams, converts each
// current sample into energy (V * I * dt, the input voltage being
// well-controlled), and attributes it to the recorded (process, procedure),
// yielding an EnergyProfile.

#ifndef SRC_POWERSCOPE_PROFILER_H_
#define SRC_POWERSCOPE_PROFILER_H_

#include <vector>

#include "src/power/machine.h"
#include "src/powerscope/multimeter.h"
#include "src/powerscope/profile.h"
#include "src/powerscope/sample.h"
#include "src/sim/simulator.h"

namespace odscope {

class Profiler {
 public:
  Profiler(odsim::Simulator* sim, odpower::Machine* machine,
           const MultimeterConfig& config = MultimeterConfig{},
           uint64_t noise_seed = 0x9d5c0ffee5eedULL);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void Start();
  void Stop();

  // Offline correlation of the collected streams.
  EnergyProfile Correlate() const;

  // Total sampled energy without attribution (fast path used by tests).
  double SampledJoules() const;

  size_t sample_count() const { return multimeter_.samples().size(); }

 private:
  odsim::Simulator* sim_;
  Multimeter multimeter_;
  std::vector<MonitorSample> monitor_samples_;
  odsim::SimTime start_;
  odsim::SimTime stop_;
};

}  // namespace odscope

#endif  // SRC_POWERSCOPE_PROFILER_H_
