#include "src/trace/power_trace.h"

#include <cmath>
#include <cstdio>

namespace odtrace {

namespace {

std::string Describe(const char* format, const std::string& name,
                     long long value) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, name.c_str(), value);
  return buf;
}

}  // namespace

const ComponentTrace* PowerTrace::Find(const std::string& name) const {
  for (const ComponentTrace& component : components) {
    if (component.name == name) {
      return &component;
    }
  }
  return nullptr;
}

double PowerTrace::ComponentJoules(const std::string& name) const {
  const ComponentTrace* component = Find(name);
  if (component == nullptr) {
    return 0.0;
  }
  const std::vector<TraceSegment>& segments = component->segments;
  // Kahan summation: the cross-check against EnergyAccounting is asserted
  // to 1e-9 J, so the integral must not add its own accumulation error on
  // top of the representation's.
  double sum = 0.0;
  double carry = 0.0;
  for (size_t i = 0; i < segments.size(); ++i) {
    const int64_t close =
        i + 1 < segments.size() ? segments[i + 1].start_us : end_us;
    const double dt = static_cast<double>(close - segments[i].start_us) * 1e-6;
    const double term = segments[i].watts * dt - carry;
    const double next = sum + term;
    carry = (next - sum) - term;
    sum = next;
  }
  return sum;
}

double PowerTrace::TotalJoules() const {
  double sum = 0.0;
  for (const ComponentTrace& component : components) {
    sum += ComponentJoules(component.name);
  }
  return sum;
}

bool PowerTrace::Validate(std::string* error) const {
  auto fail = [error](std::string why) {
    if (error != nullptr) {
      *error = std::move(why);
    }
    return false;
  };
  if (end_us < start_us) {
    return fail("trace window ends before it starts");
  }
  for (const ComponentTrace& component : components) {
    if (component.segments.empty()) {
      return fail("component " + component.name + " has no segments");
    }
    if (component.segments.front().start_us != start_us) {
      return fail(Describe("component %s does not open at the trace start "
                           "(first segment at %lld)",
                           component.name,
                           static_cast<long long>(
                               component.segments.front().start_us)));
    }
    for (size_t i = 0; i < component.segments.size(); ++i) {
      const TraceSegment& segment = component.segments[i];
      if (!std::isfinite(segment.watts)) {
        return fail(Describe("component %s has a non-finite draw at %lld",
                             component.name,
                             static_cast<long long>(segment.start_us)));
      }
      if (i > 0) {
        if (segment.start_us <= component.segments[i - 1].start_us) {
          return fail(Describe(
              "component %s is not monotone in time at %lld", component.name,
              static_cast<long long>(segment.start_us)));
        }
        if (segment.watts == component.segments[i - 1].watts) {
          return fail(Describe(
              "component %s has an uncoalesced equal-power segment at %lld",
              component.name, static_cast<long long>(segment.start_us)));
        }
      }
      if (segment.start_us > end_us ||
          (segment.start_us == end_us && duration_us() > 0)) {
        return fail(Describe(
            "component %s has a segment outside the trace window at %lld",
            component.name, static_cast<long long>(segment.start_us)));
      }
    }
  }
  return true;
}

}  // namespace odtrace
