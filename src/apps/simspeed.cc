#include "src/apps/simspeed.h"

#include <bit>
#include <functional>
#include <memory>
#include <vector>

#include "src/apps/fleet.h"
#include "src/power/thinkpad560x.h"
#include "src/powerscope/online_monitor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace odapps {

namespace {

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint32_t Fold32(uint64_t hash) {
  return static_cast<uint32_t>(hash ^ (hash >> 32));
}

}  // namespace

SimspeedCell RunQueueChurnCell(uint64_t seed) {
  constexpr int kTimers = 512;
  const odsim::SimDuration kHorizon = odsim::SimDuration::Seconds(60);
  const odsim::SimDuration kDeadline = odsim::SimDuration::Millis(50);

  odsim::Simulator sim;
  odutil::Rng seeder(seed);
  std::vector<odutil::Rng> jitter;
  jitter.reserve(kTimers);
  for (int i = 0; i < kTimers; ++i) {
    jitter.emplace_back(seeder.NextU64());
  }
  std::vector<odsim::EventHandle> deadlines(kTimers);
  uint64_t hash = 1469598103934665603ULL;
  uint64_t deadline_fires = 0;

  std::function<void(int)> tick = [&](int i) {
    hash = FnvMix(hash, (static_cast<uint64_t>(i) << 40) ^
                            static_cast<uint64_t>(sim.Now().micros()));
    // The RPC-deadline pattern: arm a timer that the next tick cancels.
    deadlines[static_cast<size_t>(i)].Cancel();
    deadlines[static_cast<size_t>(i)] =
        sim.Schedule(kDeadline, [&deadline_fires] { ++deadline_fires; });
    odsim::SimDuration period = odsim::SimDuration::Micros(
        1000 + jitter[static_cast<size_t>(i)].UniformInt(0, 19000));
    sim.Schedule(period, [&tick, i] { tick(i); });
  };
  for (int i = 0; i < kTimers; ++i) {
    sim.Schedule(odsim::SimDuration::Micros(jitter[static_cast<size_t>(i)]
                                                .UniformInt(0, 999)),
                 [&tick, i] { tick(i); });
  }

  sim.RunUntil(odsim::SimTime::Zero() + kHorizon);

  SimspeedCell cell;
  cell.events = sim.events_processed();
  cell.sim_seconds = sim.Now().seconds();
  cell.checksum = Fold32(FnvMix(FnvMix(hash, cell.events), deadline_fires));
  return cell;
}

SimspeedCell RunMonitorGridCell(uint64_t seed) {
  constexpr int kDevices = 96;
  const odsim::SimDuration kHorizon = odsim::SimDuration::Seconds(600);

  odsim::Simulator sim;
  odutil::Rng seeder(seed);

  struct Device {
    std::unique_ptr<odpower::Laptop> laptop;
    std::unique_ptr<odscope::OnlineMonitor> monitor;
    bool bright = false;
  };
  std::vector<Device> devices(kDevices);
  for (int i = 0; i < kDevices; ++i) {
    Device& d = devices[static_cast<size_t>(i)];
    d.laptop = odpower::MakeThinkPad560X(&sim);
    d.monitor = std::make_unique<odscope::OnlineMonitor>(
        &sim, &d.laptop->machine(), odscope::OnlineMonitorConfig{},
        seeder.NextU64());
    d.monitor->Start();
  }

  // Staggered display toggles: every toggle is a component state change the
  // analytic accountant integrates over and the monitors must observe.
  std::function<void(int)> toggle = [&](int i) {
    Device& d = devices[static_cast<size_t>(i)];
    d.bright = !d.bright;
    d.laptop->display().Set(d.bright ? odpower::DisplayState::kBright
                                     : odpower::DisplayState::kDim);
    sim.Schedule(odsim::SimDuration::Millis(640), [&toggle, i] { toggle(i); });
  };
  for (int i = 0; i < kDevices; ++i) {
    sim.Schedule(odsim::SimDuration::Millis(640 * i / kDevices + 1),
                 [&toggle, i] { toggle(i); });
  }

  sim.RunUntil(odsim::SimTime::Zero() + kHorizon);
  for (Device& d : devices) {
    d.monitor->Stop();
  }

  SimspeedCell cell;
  cell.events = sim.events_processed();
  cell.sim_seconds = sim.Now().seconds();
  uint64_t hash = 1469598103934665603ULL;
  for (Device& d : devices) {
    hash = FnvMix(hash, std::bit_cast<uint64_t>(d.monitor->measured_joules()));
  }
  cell.checksum = Fold32(FnvMix(hash, cell.events));
  return cell;
}

SimspeedCell RunFleetShapedCell(uint64_t seed, int clients) {
  FleetOptions options;
  options.clients = clients;
  options.seed = seed;
  options.service.cache_capacity = 512;

  FleetResult result = RunFleetScenario(options);

  SimspeedCell cell;
  cell.events = result.events_processed;
  cell.sim_seconds = result.elapsed_seconds;
  uint64_t hash = 1469598103934665603ULL;
  hash = FnvMix(hash, cell.events);
  hash = FnvMix(hash, static_cast<uint64_t>(result.total_fetches));
  hash = FnvMix(hash, static_cast<uint64_t>(result.server_completed));
  hash = FnvMix(hash, static_cast<uint64_t>(result.goal_met_count));
  hash = FnvMix(hash, std::bit_cast<uint64_t>(result.mean_residual_joules));
  hash = FnvMix(hash, std::bit_cast<uint64_t>(result.mean_consumed_joules));
  cell.checksum = Fold32(hash);
  return cell;
}

}  // namespace odapps
