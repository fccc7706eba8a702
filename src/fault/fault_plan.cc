#include "src/fault/fault_plan.h"

#include <iterator>

namespace odfault {
namespace {

// Indexed by FaultKind.  Ranges: bandwidth keeps a fraction in (0, 1], loss
// is a probability in [0, 1), the scales are > 0.
constexpr WindowKind kFaultKinds[] = {
    {"bandwidth", true, 0.1, {.hi = 1.0, .hi_closed = true}},
    {"outage", false, 0.0, {}},
    {"loss", true, 0.3, {.lo_closed = true, .hi = 1.0}},
    {"stall", false, 0.0, {}},
    {"disk", true, 8.0, {}},
    {"dropout", false, 0.0, {}},
    {"stale", false, 0.0, {}},
    {"nan", false, 0.0, {}},
    {"gauge", true, 3.0, {}},
    {"ramp", true, 2.0, {}},
};
static_assert(std::size(kFaultKinds) ==
              static_cast<size_t>(FaultKind::kGaugeRamp) + 1);

constexpr WindowGrammar kGrammar{kFaultKinds, "kind", "magnitude", false};

}  // namespace

const char* FaultKindName(FaultKind kind) {
  return kFaultKinds[static_cast<int>(kind)].name;
}

bool IsTelemetryFault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSampleDropout:
    case FaultKind::kStaleTelemetry:
    case FaultKind::kNanTelemetry:
    case FaultKind::kGaugeDrift:
    case FaultKind::kGaugeRamp:
      return true;
    default:
      return false;
  }
}

std::string FaultPlan::ToString() const {
  std::vector<Window> windows;
  windows.reserve(events.size());
  for (const FaultEvent& event : events) {
    windows.push_back({static_cast<int>(event.kind), event.at, event.duration,
                       event.magnitude});
  }
  return kGrammar.ToString("", windows);
}

bool FaultPlan::Parse(const std::string& spec, FaultPlan* plan,
                      std::string* error) {
  std::vector<Window> windows;
  if (!kGrammar.Parse(spec, nullptr, &windows, error)) {
    return false;
  }
  plan->events.clear();
  for (const Window& window : windows) {
    plan->events.push_back({static_cast<FaultKind>(window.kind), window.at,
                            window.duration, window.param});
  }
  return true;
}

}  // namespace odfault
