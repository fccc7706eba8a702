#include "src/scenario/scenario.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace odscenario {
namespace {

// Indexed by PhaseKind.  Ranges: the rates and periods are > 0, burst is a
// switch probability in (0, 1), gap keeps a bandwidth fraction in [0, 1).
constexpr odfault::WindowKind kPhaseKinds[] = {
    {"video", false, 0.0, {}},
    {"web", true, 5.0, {}},
    {"map", true, 5.0, {}},
    {"speech", true, 5.0, {}},
    {"composite", true, 25.0, {}},
    {"burst", true, 0.1, {.hi = 1.0}},
    {"sync", true, 60.0, {}},
    {"idle", false, 0.0, {}},
    {"gap", true, 0.0, {.lo_closed = true, .hi = 1.0}},
};
static_assert(std::size(kPhaseKinds) ==
              static_cast<size_t>(PhaseKind::kGap) + 1);

constexpr odfault::WindowGrammar kGrammar{kPhaseKinds, "phase kind", "param",
                                          true};

}  // namespace

const char* PhaseKindName(PhaseKind kind) {
  return kPhaseKinds[static_cast<int>(kind)].name;
}

odsim::SimDuration Scenario::Duration() const {
  odsim::SimDuration end = odsim::SimDuration::Zero();
  for (const ScenarioPhase& phase : phases) {
    end = std::max(end, phase.at + phase.duration);
  }
  return end;
}

std::string Scenario::ToString() const {
  std::vector<odfault::Window> windows;
  windows.reserve(phases.size());
  for (const ScenarioPhase& phase : phases) {
    windows.push_back({static_cast<int>(phase.kind), phase.at, phase.duration,
                       phase.param});
  }
  return kGrammar.ToString(name, windows);
}

bool Scenario::Parse(const std::string& spec, Scenario* scenario,
                     std::string* error) {
  std::string name;
  std::vector<odfault::Window> windows;
  if (!kGrammar.Parse(spec, &name, &windows, error)) {
    return false;
  }
  scenario->name = std::move(name);
  scenario->phases.clear();
  for (const odfault::Window& window : windows) {
    scenario->phases.push_back({static_cast<PhaseKind>(window.kind), window.at,
                                window.duration, window.param});
  }
  return true;
}

odfault::FaultPlan Scenario::DerivedFaultPlan() const {
  odfault::FaultPlan plan;
  for (const ScenarioPhase& phase : phases) {
    if (phase.kind != PhaseKind::kGap) {
      continue;
    }
    odfault::FaultEvent event;
    event.at = phase.at;
    event.duration = phase.duration;
    if (phase.param > 0.0) {
      event.kind = odfault::FaultKind::kBandwidth;
      event.magnitude = phase.param;
    } else {
      event.kind = odfault::FaultKind::kOutage;
      event.magnitude = 0.0;
    }
    plan.events.push_back(event);
  }
  return plan;
}

bool Scenario::ActiveAt(odsim::SimDuration t) const {
  for (const ScenarioPhase& phase : phases) {
    if (phase.kind == PhaseKind::kIdle || phase.kind == PhaseKind::kGap) {
      continue;
    }
    if (t >= phase.at && t < phase.at + phase.duration) {
      return true;
    }
  }
  return false;
}

bool Scenario::CoverageAt(odsim::SimDuration t) const {
  for (const ScenarioPhase& phase : phases) {
    if (phase.kind == PhaseKind::kGap && t >= phase.at &&
        t < phase.at + phase.duration) {
      return false;
    }
  }
  return true;
}

ScenarioBuilder::ScenarioBuilder(std::string name) {
  scenario_.name = std::move(name);
}

ScenarioBuilder& ScenarioBuilder::Add(PhaseKind kind, double start,
                                      double duration, double param) {
  ScenarioPhase phase;
  phase.kind = kind;
  phase.at = odsim::SimDuration::Seconds(start);
  phase.duration = odsim::SimDuration::Seconds(duration);
  phase.param = param;
  scenario_.phases.push_back(phase);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Video(double start, double duration) {
  return Add(PhaseKind::kVideo, start, duration, 0.0);
}
ScenarioBuilder& ScenarioBuilder::Web(double start, double duration,
                                      double pages_per_minute) {
  return Add(PhaseKind::kWeb, start, duration, pages_per_minute);
}
ScenarioBuilder& ScenarioBuilder::Map(double start, double duration,
                                      double maps_per_minute) {
  return Add(PhaseKind::kMap, start, duration, maps_per_minute);
}
ScenarioBuilder& ScenarioBuilder::Speech(double start, double duration,
                                         double utterances_per_minute) {
  return Add(PhaseKind::kSpeech, start, duration, utterances_per_minute);
}
ScenarioBuilder& ScenarioBuilder::Composite(double start, double duration,
                                            double period_seconds) {
  return Add(PhaseKind::kComposite, start, duration, period_seconds);
}
ScenarioBuilder& ScenarioBuilder::Burst(double start, double duration,
                                        double switch_probability) {
  return Add(PhaseKind::kBurst, start, duration, switch_probability);
}
ScenarioBuilder& ScenarioBuilder::Sync(double start, double duration,
                                       double period_seconds) {
  return Add(PhaseKind::kSync, start, duration, period_seconds);
}
ScenarioBuilder& ScenarioBuilder::Idle(double start, double duration) {
  return Add(PhaseKind::kIdle, start, duration, 0.0);
}
ScenarioBuilder& ScenarioBuilder::Gap(double start, double duration,
                                      double bandwidth_fraction) {
  return Add(PhaseKind::kGap, start, duration, bandwidth_fraction);
}

}  // namespace odscenario
