// Seeded mutation test for the window-spec grammar (ctest label `fuzz`).
//
// Seeds are real specs: the six library scenarios, the fault-plan rungs of
// fault_sweep, goal_fault_sweep and gauge_drift_sweep, and generated chaos
// plans.  Each case applies one to three seeded mutations (byte flips,
// truncations, piece duplication and swaps, substitution of hostile
// numbers) and feeds the result to both grammars.  Every rejection must be
// a positioned SpecError; every acceptance must replay exactly through its
// own canonical spelling.  Run under the sanitizer job, a crash or an
// out-of-range cast fails the suite.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tests/fault/chaos.h"
#include "src/fault/fault_plan.h"
#include "src/scenario/library.h"
#include "src/scenario/scenario.h"
#include "src/util/rng.h"

namespace {

using odfault::FaultPlan;
using odscenario::Scenario;

std::vector<std::string> FaultSeeds() {
  std::vector<std::string> seeds = {
      // fault_sweep rungs.
      "loss@30+40=0.3", "bandwidth@30+40=0.1", "stall@30+25", "disk@30+40=8",
      "outage@30+25",
      "bandwidth@20+30=0.2;loss@35+20=0.3;outage@60+20;stall@85+15;"
      "disk@20+80=4",
      // goal_fault_sweep rungs.
      "loss@200+300=0.3", "bandwidth@200+400=0.1", "outage@300+60",
      "stall@300+120", "disk@200+400=8", "dropout@300+90", "stale@300+90",
      "nan@300+60", "gauge@200+200=3",
      "dropout@200+60;nan@300+40;stale@400+60;gauge@500+120=3",
      "bandwidth@150+200=0.2;loss@250+150=0.3;outage@400+60;stall@500+90;"
      "disk@200+400=4;dropout@600+60;gauge@700+150=3;nan@850+40",
      // gauge_drift_sweep rungs.
      "gauge@200+800=1.2", "gauge@200+800=1.5", "gauge@200+800=3",
      "ramp@200+800=1.6",
  };
  for (uint64_t seed = 0; seed < 50; ++seed) {
    seeds.push_back(odfault::GenerateChaosPlan(seed).ToString());
  }
  return seeds;
}

std::vector<std::string> ScenarioSeeds() {
  std::vector<std::string> seeds;
  for (const Scenario& scenario : odscenario::ScenarioLibrary()) {
    seeds.push_back(scenario.ToString());
  }
  return seeds;
}

std::vector<std::string> Pieces(const std::string& spec) {
  std::vector<std::string> pieces(1);
  for (char c : spec) {
    if (c == ';') {
      pieces.emplace_back();
    } else {
      pieces.back() += c;
    }
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces) {
  std::string spec;
  for (size_t i = 0; i < pieces.size(); ++i) {
    spec += (i == 0 ? "" : ";") + pieces[i];
  }
  return spec;
}

std::string Mutate(std::string spec, odutil::Rng& rng) {
  static const std::string kGrammarBytes = "@+=;:#\n \t.-e0123456789";
  static const char* const kHostileNumbers[] = {"nan", "inf", "1e308", "-0",
                                                "1e-9"};
  const int mutations = rng.UniformInt(1, 3);
  for (int m = 0; m < mutations; ++m) {
    const int size = static_cast<int>(spec.size());
    switch (rng.UniformInt(0, 4)) {
      case 0:  // Byte flip, biased toward bytes the grammar gives meaning.
        if (size > 0) {
          spec[rng.UniformInt(0, size - 1)] =
              rng.Bernoulli(0.7)
                  ? kGrammarBytes[rng.UniformInt(
                        0, static_cast<int>(kGrammarBytes.size()) - 1)]
                  : static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
      case 1:  // Truncation.
        spec.resize(rng.UniformInt(0, size));
        break;
      case 2: {  // Piece duplication.
        std::vector<std::string> pieces = Pieces(spec);
        const std::string piece = pieces[rng.UniformInt(
            0, static_cast<int>(pieces.size()) - 1)];
        pieces.insert(pieces.begin() + rng.UniformInt(
                                           0, static_cast<int>(pieces.size())),
                      piece);
        spec = Join(pieces);
        break;
      }
      case 3: {  // Piece swap.
        std::vector<std::string> pieces = Pieces(spec);
        const int last = static_cast<int>(pieces.size()) - 1;
        std::swap(pieces[rng.UniformInt(0, last)],
                  pieces[rng.UniformInt(0, last)]);
        spec = Join(pieces);
        break;
      }
      default: {  // Replace the number after an '@', '+' or '='.
        std::vector<size_t> marks;
        for (size_t i = 0; i < spec.size(); ++i) {
          if (spec[i] == '@' || spec[i] == '+' || spec[i] == '=') {
            marks.push_back(i + 1);
          }
        }
        if (marks.empty()) {
          break;
        }
        const size_t begin =
            marks[rng.UniformInt(0, static_cast<int>(marks.size()) - 1)];
        size_t end = spec.find_first_of("@+=;\n#", begin);
        if (end == std::string::npos) {
          end = spec.size();
        }
        spec.replace(begin, end - begin,
                     kHostileNumbers[rng.UniformInt(0, 4)]);
        break;
      }
    }
  }
  return spec;
}

// "line L, col C: ..." with L within the spec's lines and C >= 1.
void ExpectPositioned(const std::string& spec, const std::string& error) {
  int line = 0;
  int column = 0;
  int consumed = 0;
  ASSERT_EQ(std::sscanf(error.c_str(), "line %d, col %d: %n", &line, &column,
                        &consumed),
            2)
      << spec << " -> " << error;
  EXPECT_GT(consumed, 0) << spec << " -> " << error;
  EXPECT_GE(line, 1) << spec << " -> " << error;
  EXPECT_LE(line, 1 + std::count(spec.begin(), spec.end(), '\n'))
      << spec << " -> " << error;
  EXPECT_GE(column, 1) << spec << " -> " << error;
}

bool SameWindows(const FaultPlan& a, const FaultPlan& b) {
  if (a.events.size() != b.events.size()) {
    return false;
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    const odfault::FaultEvent& x = a.events[i];
    const odfault::FaultEvent& y = b.events[i];
    if (x.kind != y.kind || x.at != y.at || x.duration != y.duration ||
        x.magnitude != y.magnitude) {
      return false;
    }
  }
  return true;
}

bool SameWindows(const Scenario& a, const Scenario& b) {
  if (a.name != b.name || a.phases.size() != b.phases.size()) {
    return false;
  }
  for (size_t i = 0; i < a.phases.size(); ++i) {
    const odscenario::ScenarioPhase& x = a.phases[i];
    const odscenario::ScenarioPhase& y = b.phases[i];
    if (x.kind != y.kind || x.at != y.at || x.duration != y.duration ||
        x.param != y.param) {
      return false;
    }
  }
  return true;
}

// Parses `spec` with grammar T and checks the outcome; returns whether it
// was accepted.
template <typename T>
bool Check(const std::string& spec) {
  T parsed;
  std::string error;
  if (!T::Parse(spec, &parsed, &error)) {
    ExpectPositioned(spec, error);
    return false;
  }
  const std::string canonical = parsed.ToString();
  T reparsed;
  EXPECT_TRUE(T::Parse(canonical, &reparsed, &error))
      << spec << " -> " << canonical << ": " << error;
  EXPECT_TRUE(SameWindows(parsed, reparsed)) << spec << " -> " << canonical;
  EXPECT_EQ(reparsed.ToString(), canonical) << spec;
  return true;
}

// Mutates each seed `cases_per_seed` times and feeds every mutant to both
// grammars; returns how many mutants `Own` (the seeds' grammar) accepted.
template <typename Own>
int FuzzSeeds(const std::vector<std::string>& seeds, int cases_per_seed,
              uint64_t rng_seed) {
  odutil::Rng rng(rng_seed);
  int accepted = 0;
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(Check<Own>(seed)) << seed;
    for (int i = 0; i < cases_per_seed; ++i) {
      const std::string spec = Mutate(seed, rng);
      const bool as_plan = Check<FaultPlan>(spec);
      const bool as_scenario = Check<Scenario>(spec);
      accepted += (std::is_same_v<Own, FaultPlan> ? as_plan : as_scenario);
    }
  }
  return accepted;
}

// Both outcomes stay common, so the rejection and the replay checks both
// see real traffic.
TEST(WindowSpecFuzz, MutatedFaultPlansAreRejectedWithPositionOrReplayExactly) {
  const std::vector<std::string> seeds = FaultSeeds();
  const int cases = static_cast<int>(seeds.size()) * 30;
  const int accepted = FuzzSeeds<FaultPlan>(seeds, 30, 0xfa017ULL);
  EXPECT_GT(accepted, cases / 10);
  EXPECT_LT(accepted, cases * 9 / 10);
}

TEST(WindowSpecFuzz, MutatedScenariosAreRejectedWithPositionOrReplayExactly) {
  const std::vector<std::string> seeds = ScenarioSeeds();
  const int cases = static_cast<int>(seeds.size()) * 250;
  const int accepted = FuzzSeeds<Scenario>(seeds, 250, 0x5ce7eULL);
  EXPECT_GT(accepted, cases / 10);
  EXPECT_LT(accepted, cases * 9 / 10);
}

}  // namespace
