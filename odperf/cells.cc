#include "odperf/cells.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/apps/experiments.h"
#include "src/apps/fleet.h"
#include "src/energy/goal_director.h"
#include "src/energy/learned_estimator.h"
#include "src/net/link.h"
#include "src/net/rpc.h"
#include "src/odyssey/viceroy.h"
#include "src/power/supply.h"
#include "src/power/thinkpad560x.h"
#include "src/powerscope/online_monitor.h"
#include "src/scenario/library.h"
#include "src/serve/shared_service.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace odperf {

namespace {

constexpr int kBatches = 5;
constexpr int kFleetDevices = 1000;

using odsim::SimDuration;
using odsim::SimTime;

struct CellCost {
  double ns_per_op = 0.0;
  uint64_t ops = 0;  // Per batch; the same in every batch.
};

// Times one region of a cell batch as a span.
class Timer {
 public:
  Timer(Tracer* tracer, int parent, const char* name)
      : tracer_(tracer), parent_(parent), name_(name) {}

  template <typename Body>
  void operator()(Body body) {
    SpanScope span(tracer_, name_, parent_);
    auto start = std::chrono::steady_clock::now();
    body();
    seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  }

  double seconds() const { return seconds_; }

 private:
  Tracer* tracer_;
  int parent_;
  const char* name_;
  double seconds_ = 0.0;
};

// Runs `batch` kBatches times.  Each batch builds its own state, times the
// part to measure with the Timer it is given, and returns the operations
// done inside it.
template <typename Batch>
CellCost Measure(Tracer* tracer, int parent, const char* name, Batch batch) {
  std::vector<double> ns;
  uint64_t ops = 0;
  for (int b = 0; b < kBatches; ++b) {
    Timer timed(tracer, parent, name);
    const uint64_t done = batch(timed);
    OD_CHECK(done > 0);
    OD_CHECK(b == 0 || done == ops);
    ops = done;
    ns.push_back(1e9 * timed.seconds() / static_cast<double>(done));
  }
  std::sort(ns.begin(), ns.end());
  return CellCost{ns[ns.size() / 2], ops};
}

bool IsFleet(const Plan& plan) {
  return plan.workload != Workload::kGoalDefended;
}

// Self-rescheduling timer: fires every `period` (times `jitter` draws in
// [0.9, 1.1] when a generator is given) until the simulation stops.
void Periodic(odsim::Simulator* sim, SimDuration first, SimDuration period,
              odutil::Rng* jitter, std::function<void()> body) {
  auto tick = std::make_shared<std::function<void()>>();
  *tick = [sim, period, jitter, body = std::move(body), tick_weak =
                                                            std::weak_ptr(tick)] {
    body();
    SimDuration next = jitter != nullptr ? period * jitter->Uniform(0.9, 1.1)
                                         : period;
    std::shared_ptr<std::function<void()>> self = tick_weak.lock();
    sim->Schedule(next, [self] { (*self)(); });
  };
  sim->Schedule(first, [tick] { (*tick)(); });
}

// sim: the event queue under the workload's timer population.  Fleets: per
// device a lockstep 500 ms monitor and 1 s director timer plus a jittered
// 5 s fetch timer.  goal_defended: one device's 100 ms monitor, 500 ms
// director, 1 s probe and ~33 Hz of jittered CPU/link/app events.
CellCost SimCell(const Plan& plan, Tracer* tracer, int parent) {
  return Measure(tracer, parent, "cell.sim", [&](Timer& timed) {
    odsim::Simulator sim;
    odutil::Rng rng(plan.seed);
    uint64_t fired = 0;
    auto count = [&fired] { ++fired; };
    SimDuration horizon = SimDuration::Seconds(90);
    if (IsFleet(plan)) {
      for (int i = 0; i < kFleetDevices; ++i) {
        Periodic(&sim, SimDuration::Millis(500), SimDuration::Millis(500),
                 nullptr, count);
        Periodic(&sim, SimDuration::Seconds(1), SimDuration::Seconds(1),
                 nullptr, count);
        Periodic(&sim, SimDuration::Seconds(5.0 * i / kFleetDevices),
                 SimDuration::Seconds(5), &rng, count);
      }
    } else {
      horizon = SimDuration::Seconds(12000);
      Periodic(&sim, SimDuration::Millis(100), SimDuration::Millis(100),
               nullptr, count);
      Periodic(&sim, SimDuration::Millis(500), SimDuration::Millis(500),
               nullptr, count);
      Periodic(&sim, SimDuration::Seconds(1), SimDuration::Seconds(1), nullptr,
               count);
      Periodic(&sim, SimDuration::Millis(30), SimDuration::Millis(30), &rng,
               count);
    }
    timed([&] { sim.RunUntil(SimTime::Zero() + horizon); });
    return sim.events_processed();
  });
}

// powerscope: on-line monitors sampling machines.  Fleets: 1000 monitors at
// 2 Hz.  goal_defended: one 10 Hz monitor on a machine whose display
// toggles, so the sampled draw changes.
CellCost PowerscopeCell(const Plan& plan, Tracer* tracer, int parent) {
  return Measure(tracer, parent, "cell.powerscope", [&](Timer& timed) {
    odsim::Simulator sim;
    odutil::Rng seeder(plan.seed);
    const bool fleet = IsFleet(plan);
    const int devices = fleet ? kFleetDevices : 1;
    std::vector<std::unique_ptr<odpower::Laptop>> laptops;
    std::vector<std::unique_ptr<odscope::OnlineMonitor>> monitors;
    uint64_t samples = 0;
    for (int i = 0; i < devices; ++i) {
      laptops.push_back(odpower::MakeThinkPad560X(&sim));
      monitors.push_back(std::make_unique<odscope::OnlineMonitor>(
          &sim, &laptops.back()->machine(),
          odscope::OnlineMonitorConfig{
              .period = fleet ? SimDuration::Millis(500)
                              : SimDuration::Millis(100)},
          seeder.NextU64()));
      monitors.back()->set_callback([&samples](SimTime, double) { ++samples; });
      monitors.back()->Start();
    }
    if (!fleet) {
      odpower::Display* display = &laptops[0]->display();
      auto bright = std::make_shared<bool>(false);
      Periodic(&sim, SimDuration::Millis(640), SimDuration::Millis(640),
               nullptr, [display, bright] {
                 *bright = !*bright;
                 display->Set(*bright ? odpower::DisplayState::kBright
                                      : odpower::DisplayState::kDim);
               });
    }
    const SimDuration horizon =
        fleet ? SimDuration::Seconds(90) : SimDuration::Seconds(30000);
    timed([&] { sim.RunUntil(SimTime::Zero() + horizon); });
    for (auto& monitor : monitors) {
      monitor->Stop();
    }
    return samples;
  });
}

// energy: a benchmark-owned monitor feeding a goal director with the
// workload's configuration.  Fleets: the bare controller at the fleet's
// cadence (500 ms monitor, 1 s evaluation, no timeline) on 100 devices.
// goal_defended: one 10 Hz monitor, the default 500 ms evaluation, the
// learned model attached and the drift sentinel armed.
CellCost EnergyCell(const Plan& plan, Tracer* tracer, int parent) {
  return Measure(tracer, parent, "cell.energy", [&](Timer& timed) {
    odsim::Simulator sim;
    odutil::Rng seeder(plan.seed);
    const bool fleet = IsFleet(plan);
    const int devices = fleet ? 100 : 1;
    const SimDuration period =
        fleet ? odapps::FleetOptions{}.monitor_period : SimDuration::Millis(100);
    const SimDuration horizon =
        fleet ? SimDuration::Seconds(600) : SimDuration::Seconds(6000);
    odenergy::GoalDirectorConfig config;
    if (fleet) {
      config = odapps::FleetOptions{}.director;
    } else {
      config.drift_sentinel.enabled = true;
    }

    struct Device {
      std::unique_ptr<odpower::Laptop> laptop;
      std::unique_ptr<odnet::Link> link;
      std::unique_ptr<odyssey::Viceroy> viceroy;
      std::unique_ptr<odapps::FleetApp> app;
      std::unique_ptr<odscope::OnlineMonitor> monitor;
      std::unique_ptr<odpower::EnergySupply> supply;
      std::unique_ptr<odenergy::LearnedEstimator> learned;
      std::unique_ptr<odenergy::GoalDirector> director;
    };
    std::vector<Device> fleet_devices(static_cast<size_t>(devices));
    for (Device& d : fleet_devices) {
      d.laptop = odpower::MakeThinkPad560X(&sim);
      d.link = std::make_unique<odnet::Link>(&sim, &d.laptop->power_manager(),
                                             odnet::LinkConfig{});
      d.viceroy = std::make_unique<odyssey::Viceroy>(
          &sim, d.link.get(), &d.laptop->power_manager());
      d.app = std::make_unique<odapps::FleetApp>("Tile");
      d.viceroy->RegisterApplication(d.app.get());
      d.monitor = std::make_unique<odscope::OnlineMonitor>(
          &sim, &d.laptop->machine(),
          odscope::OnlineMonitorConfig{.period = period}, seeder.NextU64());
      d.supply = std::make_unique<odpower::EnergySupply>(
          &d.laptop->accounting(), 1.0e6);
      d.director = std::make_unique<odenergy::GoalDirector>(
          d.viceroy.get(), d.supply.get(), d.monitor.get(),
          SimTime::Zero() + horizon, config);
      if (!fleet) {
        d.learned = std::make_unique<odenergy::LearnedEstimator>(
            &d.laptop->machine(), SimTime::Zero());
        d.director->AttachLearnedEstimator(d.learned.get());
        odpower::Display* display = &d.laptop->display();
        auto bright = std::make_shared<bool>(false);
        Periodic(&sim, SimDuration::Millis(640), SimDuration::Millis(640),
                 nullptr, [display, bright] {
                   *bright = !*bright;
                   display->Set(*bright ? odpower::DisplayState::kBright
                                        : odpower::DisplayState::kDim);
                 });
      }
      d.director->Start(/*stop_sim_on_completion=*/false);
    }
    timed([&] { sim.RunUntil(SimTime::Zero() + horizon); });
    for (Device& d : fleet_devices) {
      d.director->Stop();
      d.monitor->Stop();
    }
    return static_cast<uint64_t>(devices) *
           static_cast<uint64_t>(horizon.micros() / period.micros());
  });
}

// power: component state changes through the machine's notify path (cached
// TotalPower invalidation plus accounting accrual), then a TotalPower read.
// Fleets: 1000 laptops whose WaveLAN steps idle <-> receive once a second.
// goal_defended: one laptop with a toggling display and CPU work bursts, so
// context switches drive the CPU component too.
CellCost PowerCell(const Plan& plan, Tracer* tracer, int parent) {
  return Measure(tracer, parent, "cell.power", [&](Timer& timed) {
    odsim::Simulator sim;
    const bool fleet = IsFleet(plan);
    const int devices = fleet ? kFleetDevices : 1;
    std::vector<std::unique_ptr<odpower::Laptop>> laptops;
    uint64_t changes = 0;
    double watts = 0.0;
    struct Counter : odpower::MachineObserver {
      explicit Counter(uint64_t* n) : n(n) {}
      void OnMachinePowerChanged(SimTime) override { ++*n; }
      uint64_t* n;
    } counter(&changes);
    for (int i = 0; i < devices; ++i) {
      laptops.push_back(odpower::MakeThinkPad560X(&sim));
      odpower::Laptop* laptop = laptops.back().get();
      laptop->machine().AddObserver(&counter);
      auto high = std::make_shared<bool>(false);
      if (fleet) {
        Periodic(&sim, SimDuration::Seconds(1.0 * i / devices),
                 SimDuration::Seconds(1), nullptr, [laptop, high, &watts] {
                   *high = !*high;
                   laptop->wavelan().Set(*high ? odpower::WaveLanState::kReceive
                                               : odpower::WaveLanState::kIdle);
                   watts += laptop->machine().TotalPower();
                 });
      } else {
        Periodic(&sim, SimDuration::Millis(640), SimDuration::Millis(640),
                 nullptr, [laptop, high, &watts] {
                   *high = !*high;
                   laptop->display().Set(*high ? odpower::DisplayState::kBright
                                               : odpower::DisplayState::kDim);
                   watts += laptop->machine().TotalPower();
                 });
        odsim::ProcessId pid = sim.processes().RegisterProcess("cell");
        odsim::ProcedureId proc = sim.processes().RegisterProcedure("work");
        Periodic(&sim, SimDuration::Millis(50), SimDuration::Millis(50),
                 nullptr, [&sim, pid, proc, laptop, &watts] {
                   sim.SubmitWork(pid, proc, SimDuration::Millis(20),
                                  [laptop, &watts] {
                                    watts += laptop->machine().TotalPower();
                                  });
                 });
      }
    }
    const SimDuration horizon =
        fleet ? SimDuration::Seconds(120) : SimDuration::Seconds(6000);
    timed([&] { sim.RunUntil(SimTime::Zero() + horizon); });
    OD_CHECK(std::isfinite(watts));
    return changes;
  });
}

// serve: SubmitKeyed with the fleet's key stream (256 shared objects times
// fidelity level, one request per device per jittered 5 s) against the
// fleet's service configuration, cache off or on as in the workload.
// goal_defended: the single-client shape, one session submitting unkeyed
// work to a default service.
CellCost ServeCell(const Plan& plan, Tracer* tracer, int parent) {
  return Measure(tracer, parent, "cell.serve", [&](Timer& timed) {
    odsim::Simulator sim;
    odutil::Rng rng(plan.seed);
    uint64_t done = 0;
    std::unique_ptr<odserve::SharedService> service;
    if (IsFleet(plan)) {
      odserve::ServiceConfig config = odapps::FleetOptions{}.service;
      if (plan.workload == Workload::kFleetCached) {
        config.cache_capacity = 512;
      }
      service = std::make_unique<odserve::SharedService>(&sim, "distill", config);
      const std::vector<odapps::FleetLevelSpec>& levels = odapps::FleetLevels();
      for (int i = 0; i < kFleetDevices; ++i) {
        int session = service->OpenSession("Tile-" + std::to_string(i));
        odserve::SharedService* svc = service.get();
        Periodic(&sim, SimDuration::Seconds(5.0 * i / kFleetDevices),
                 SimDuration::Seconds(5), &rng, [&rng, &levels, svc, session,
                                                 &done] {
                   int level = rng.UniformInt(0, static_cast<int>(levels.size()) - 1);
                   int object = rng.UniformInt(0, 255);
                   svc->SubmitKeyed(
                       session,
                       "obj" + std::to_string(object) + "@f" +
                           std::to_string(level),
                       levels[static_cast<size_t>(level)].distill_time,
                       [&done](odserve::ServeOutcome) { ++done; });
                 });
      }
      timed([&] { sim.RunUntil(SimTime::Zero() + SimDuration::Seconds(120)); });
    } else {
      service = std::make_unique<odserve::SharedService>(&sim, "video");
      int session = service->OpenSession("Video");
      odserve::SharedService* svc = service.get();
      Periodic(&sim, SimDuration::Millis(100), SimDuration::Millis(100), nullptr,
               [svc, session, &done] {
                 svc->Submit(session, SimDuration::Millis(50), [&done] { ++done; });
               });
      timed([&] { sim.RunUntil(SimTime::Zero() + SimDuration::Seconds(20000)); });
    }
    return done;
  });
}

// net: RPCs over a WaveLAN link.  Fleets: 200 devices fetching once a
// second (the fleet's ~200 fetches per simulated second) with fleet reply
// sizes and no interrupt batching.  goal_defended: one testbed-configured
// link issuing a fetch every 500 ms.
CellCost NetCell(const Plan& plan, Tracer* tracer, int parent) {
  return Measure(tracer, parent, "cell.net", [&](Timer& timed) {
    odsim::Simulator sim;
    odutil::Rng rng(plan.seed);
    const bool fleet = IsFleet(plan);
    const int devices = fleet ? 200 : 1;
    odnet::LinkConfig link_config;
    if (fleet) {
      link_config.interrupt_batch_bytes = std::numeric_limits<size_t>::max();
    }
    struct Device {
      std::unique_ptr<odpower::Laptop> laptop;
      std::unique_ptr<odnet::Link> link;
      std::unique_ptr<odnet::RpcClient> rpc;
    };
    std::vector<Device> nodes(static_cast<size_t>(devices));
    uint64_t replies = 0;
    const std::vector<odapps::FleetLevelSpec>& levels = odapps::FleetLevels();
    for (int i = 0; i < devices; ++i) {
      Device& d = nodes[static_cast<size_t>(i)];
      d.laptop = odpower::MakeThinkPad560X(&sim);
      d.link = std::make_unique<odnet::Link>(&sim, &d.laptop->power_manager(),
                                             link_config);
      d.rpc = std::make_unique<odnet::RpcClient>(
          &sim, d.link.get(), &d.laptop->power_manager(), rng.NextU64());
      odnet::RpcClient* rpc = d.rpc.get();
      Periodic(&sim, SimDuration::Seconds((fleet ? 1.0 : 0.5) * i / devices),
               fleet ? SimDuration::Seconds(1) : SimDuration::Millis(500), &rng,
               [rpc, &rng, &levels, &replies] {
                 const odapps::FleetLevelSpec& spec =
                     levels[static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int>(levels.size()) - 1))];
                 rpc->Call(256, spec.reply_bytes, spec.distill_time,
                           [&replies] { ++replies; });
               });
    }
    const SimDuration horizon =
        fleet ? SimDuration::Seconds(120) : SimDuration::Seconds(20000);
    timed([&] { sim.RunUntil(SimTime::Zero() + horizon); });
    return replies;
  });
}

// Parsing the inputs a user supplies as text: the scenario library's
// canonical spellings, and the goal runs' fault plans.
CellCost ParseCell(Tracer* tracer, int parent, const char* name,
                   const std::function<bool(const std::string&)>& parse,
                   const std::vector<std::string>& texts) {
  constexpr int kRounds = 2000;
  return Measure(tracer, parent, name, [&](Timer& timed) {
    uint64_t parsed = 0;
    timed([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (const std::string& text : texts) {
          OD_CHECK(parse(text));
          ++parsed;
        }
      }
    });
    return parsed;
  });
}

}  // namespace

std::map<std::string, double> RunCells(const Plan& plan, Tracer* tracer,
                                       int parent) {
  std::map<std::string, double> metrics;
  metrics["sim.ns_per_event"] = SimCell(plan, tracer, parent).ns_per_op;
  CellCost scope = PowerscopeCell(plan, tracer, parent);
  metrics["powerscope.samples"] = static_cast<double>(scope.ops);
  metrics["powerscope.ns_per_sample"] = scope.ns_per_op;
  metrics["energy.ns_per_sample"] = EnergyCell(plan, tracer, parent).ns_per_op;
  metrics["power.ns_per_change"] = PowerCell(plan, tracer, parent).ns_per_op;
  metrics["serve.ns_per_request"] = ServeCell(plan, tracer, parent).ns_per_op;
  metrics["net.ns_per_rpc"] = NetCell(plan, tracer, parent).ns_per_op;

  std::vector<std::string> scenario_texts;
  std::vector<std::string> plan_texts;
  for (const odscenario::Scenario& scenario : odscenario::ScenarioLibrary()) {
    scenario_texts.push_back(scenario.ToString());
  }
  for (const GoalRunInput& input :
       Prepare(Workload::kGoalDefended, plan.seed).goal_inputs) {
    plan_texts.push_back(input.fault_plan.ToString());
  }
  metrics["scenario.us_per_parse"] =
      1e-3 * ParseCell(tracer, parent, "cell.scenario_parse",
                       [](const std::string& text) {
                         odscenario::Scenario scenario;
                         return odscenario::Scenario::Parse(text, &scenario,
                                                            nullptr);
                       },
                       scenario_texts)
                 .ns_per_op;
  metrics["fault.us_per_parse"] =
      1e-3 * ParseCell(tracer, parent, "cell.fault_parse",
                       [](const std::string& text) {
                         odfault::FaultPlan fault_plan;
                         return odfault::FaultPlan::Parse(text, &fault_plan,
                                                          nullptr);
                       },
                       plan_texts)
                 .ns_per_op;
  return metrics;
}

double PaperErrorPct(Tracer* tracer, int parent) {
  using namespace odapps;
  SpanScope span(tracer, "apps.paper_ratios", parent);
  // (measured ratio, paper target): the midpoints of the bands the
  // calibrate experiment prints.
  std::vector<std::pair<double, double>> ratios;
  const VideoClip& clip = StandardVideoClips()[0];
  double v_base = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, false, 1).joules;
  double v_pm = RunVideoExperiment(clip, VideoTrack::kBaseline, 1.0, true, 1).joules;
  double v_c = RunVideoExperiment(clip, VideoTrack::kPremiereC, 1.0, true, 1).joules;
  double v_cw = RunVideoExperiment(clip, VideoTrack::kPremiereC, 0.5, true, 1).joules;
  ratios.push_back({v_pm / v_base, 0.905});
  ratios.push_back({v_c / v_pm, 0.835});
  ratios.push_back({v_cw / v_pm, 0.71});

  const Utterance& utt = StandardUtterances()[2];
  double s_base = RunSpeechExperiment(utt, SpeechMode::kLocal, false, false, 1).joules;
  double s_pm = RunSpeechExperiment(utt, SpeechMode::kLocal, false, true, 1).joules;
  double s_hybr = RunSpeechExperiment(utt, SpeechMode::kHybrid, true, true, 1).joules;
  ratios.push_back({s_pm / s_base, 0.665});
  ratios.push_back({s_hybr / s_base, 0.255});

  const MapObject& map = StandardMaps()[0];
  double m_base = RunMapExperiment(map, MapFidelity::kFull, 5, false, 1).joules;
  double m_pm = RunMapExperiment(map, MapFidelity::kFull, 5, true, 1).joules;
  double m_cs = RunMapExperiment(map, MapFidelity::kCroppedSecondary, 5, true, 1).joules;
  ratios.push_back({m_pm / m_base, 0.86});
  ratios.push_back({m_cs / m_pm, 0.49});

  const WebImage& img = StandardWebImages()[0];
  double w_base = RunWebExperiment(img, WebFidelity::kOriginal, 5, false, 1).joules;
  double w_pm = RunWebExperiment(img, WebFidelity::kOriginal, 5, true, 1).joules;
  double w_5 = RunWebExperiment(img, WebFidelity::kJpeg5, 5, true, 1).joules;
  ratios.push_back({w_pm / w_base, 0.76});
  ratios.push_back({w_5 / w_pm, 0.91});

  double error = 0.0;
  for (const auto& [measured, target] : ratios) {
    error += std::abs(measured / target - 1.0);
  }
  span.set_count(ratios.size());
  return 100.0 * error / static_cast<double>(ratios.size());
}

}  // namespace odperf
