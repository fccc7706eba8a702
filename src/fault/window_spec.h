// The window-spec grammar shared by fault plans and usage scenarios:
//
//   window := kind '@' start '+' duration [ '=' param ]
//   spec   := [ name ':' ] window ( ( ';' | newline ) window )*
//
// Start/duration are seconds.  '#' comments run to the end of the line
// (swallowing any ';' on it), whitespace around a window is ignored and
// empty pieces are skipped.  Only grammars that set `named` accept the
// "name:" tag; elsewhere it is an unknown kind.
//
// Numbers use strtod syntax and must be finite.  Each window must be an
// exact SimTime window: start >= 0, a duration still positive once rounded
// to whole microseconds, and an end by kMaxWindowEnd.  Below that bound
// every microsecond count survives the trip through a double, so every
// accepted spec replays exactly: Parse(ToString(x)) reproduces x's windows.
//
// A grammar is one kind table whose row i describes the grammar's enum
// value i.  FaultPlan and Scenario are thin wrappers over one table each.

#ifndef SRC_FAULT_WINDOW_SPEC_H_
#define SRC_FAULT_WINDOW_SPEC_H_

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace odfault {

// Latest window end a spec may name: 1e9 s (~31.7 years).
inline constexpr odsim::SimDuration kMaxWindowEnd =
    odsim::SimDuration::Seconds(1e9);

// A param interval; each bound is open unless marked closed.
struct ParamRange {
  double lo = 0.0;
  bool lo_closed = false;
  double hi = std::numeric_limits<double>::infinity();
  bool hi_closed = false;

  bool Contains(double value) const {
    return (lo_closed ? value >= lo : value > lo) &&
           (hi_closed ? value <= hi : value < hi);
  }
};

// One row of a grammar's kind table.
struct WindowKind {
  const char* name;
  bool takes_param;
  double default_param;
  ParamRange range;  // Checked against params written in the spec.
};

struct Window {
  int kind = 0;  // Row in the grammar's kind table.
  odsim::SimDuration at = odsim::SimDuration::Zero();
  odsim::SimDuration duration = odsim::SimDuration::Zero();
  double param = 0.0;
};

struct WindowGrammar {
  std::span<const WindowKind> kinds;  // Indexed by the grammar's kind enum.
  const char* kind_noun;   // Diagnostics: "unknown <kind_noun> (...)".
  const char* param_noun;  // Diagnostics: "<param_noun> out of range ...".
  bool named;              // Accepts a leading "name:" tag.

  // Parses `spec` into `windows` (and the tag into `name`, when `named`).
  // On failure returns false and, when `error` is non-null, a SpecError
  // locating the first problem.  An empty spec parses to no windows.
  bool Parse(const std::string& spec, std::string* name,
             std::vector<Window>* windows, std::string* error) const;

  // Canonical spelling: "name: " (when named), then the windows joined by
  // ';', each param rendered only for kinds that take one.  Numbers use
  // %g when that reads back to the same value, else the shortest %.Ng
  // that does.  No name and no windows -> "".
  std::string ToString(const std::string& name,
                       const std::vector<Window>& windows) const;
};

// Formats a position-annotated spec-grammar error: "line L, col C: <why>
// near '<token>'".  Line and column are 1-based; an empty token drops the
// "near" clause.  odbench surfaces it with exit code 64.
std::string SpecError(int line, int column, const std::string& token,
                      const std::string& why);

}  // namespace odfault

#endif  // SRC_FAULT_WINDOW_SPEC_H_
