// The scenario grammar: round-trips, builder/grammar equivalence, comment
// and newline handling, the derived environment plan, and the malformed-
// input table (every parse error names line, column, and offending token —
// the same diagnostic shape as fault plans).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/scenario/library.h"
#include "src/scenario/scenario.h"

namespace {

using odscenario::PhaseKind;
using odscenario::Scenario;
using odscenario::ScenarioBuilder;

Scenario MustParse(const std::string& spec) {
  Scenario scenario;
  std::string error;
  EXPECT_TRUE(Scenario::Parse(spec, &scenario, &error)) << spec << ": " << error;
  return scenario;
}

std::string ParseError(const std::string& spec) {
  Scenario scenario;
  std::string error;
  EXPECT_FALSE(Scenario::Parse(spec, &scenario, &error)) << spec;
  return error;
}

TEST(ScenarioGrammar, RoundTripsCanonicalSpelling) {
  for (const Scenario& scenario : odscenario::ScenarioLibrary()) {
    Scenario reparsed = MustParse(scenario.ToString());
    EXPECT_EQ(scenario.ToString(), reparsed.ToString()) << scenario.name;
    EXPECT_EQ(scenario.name, reparsed.name);
    EXPECT_EQ(scenario.phases.size(), reparsed.phases.size());
  }
}

TEST(ScenarioGrammar, BuilderAndGrammarAgree) {
  Scenario built = ScenarioBuilder("commute")
                       .Video(0, 240)
                       .Gap(180, 120)
                       .Web(300, 180, 6)
                       .Build();
  Scenario parsed =
      MustParse("commute: video@0+240;gap@180+120=0;web@300+180=6");
  EXPECT_EQ(built.ToString(), parsed.ToString());
}

TEST(ScenarioGrammar, DefaultsApplyWhenParamOmitted) {
  Scenario scenario = MustParse("web@0+60;sync@0+300;burst@0+120;gap@10+20");
  ASSERT_EQ(scenario.phases.size(), 4u);
  EXPECT_DOUBLE_EQ(scenario.phases[0].param, 5.0);    // pages/min
  EXPECT_DOUBLE_EQ(scenario.phases[1].param, 60.0);   // sync period
  EXPECT_DOUBLE_EQ(scenario.phases[2].param, 0.1);    // switch prob
  EXPECT_DOUBLE_EQ(scenario.phases[3].param, 0.0);    // full outage
}

TEST(ScenarioGrammar, NewlinesAndCommentsSeparatePhases) {
  Scenario scenario = MustParse(
      "day:\n"
      "# the morning video\n"
      "video@0+240\n"
      "web@300+60=4  # cast list; the ';' here is commented out\n"
      "sync@0+600=120");
  EXPECT_EQ(scenario.name, "day");
  ASSERT_EQ(scenario.phases.size(), 3u);
  EXPECT_EQ(scenario.phases[1].kind, PhaseKind::kWeb);
  EXPECT_EQ(scenario.ToString(),
            "day: video@0+240;web@300+60=4;sync@0+600=120");
}

TEST(ScenarioGrammar, EmptySpecIsEmptyScenario) {
  Scenario scenario = MustParse("");
  EXPECT_TRUE(scenario.phases.empty());
  EXPECT_EQ(scenario.ToString(), "");
  EXPECT_EQ(scenario.Duration(), odsim::SimDuration::Zero());
  MustParse("  # nothing but a comment\n");
}

TEST(ScenarioGrammar, FractionalTimesSurviveRoundTrip) {
  Scenario scenario = MustParse("web@0.5+59.25=7.5");
  EXPECT_EQ(scenario.ToString(), "web@0.5+59.25=7.5");
  EXPECT_EQ(scenario.Duration(), odsim::SimDuration::Seconds(59.75));
}

// Malformed inputs: every rejection names the line, the column, and the
// offending token, so a bad --scenario flag (or a typo in a committed
// scenario) is a one-glance fix.
TEST(ScenarioGrammar, RejectsMalformedSpecsWithPosition) {
  struct Case {
    const char* spec;
    const char* expected_position;
    const char* expected_token;
  };
  const std::vector<Case> cases = {
      {"meteor@0+60", "line 1, col 1", "'meteor'"},
      {"web@0", "line 1, col 5", "'0'"},
      {"video@0+60=2", "line 1, col 11", "'=2'"},
      {"web@-5+60", "line 1, col 5", "'-5'"},
      {"web@0+0", "line 1, col 7", "'0'"},
      {"web@0+60=zero", "line 1, col 10", "'zero'"},
      {"gap@0+60=1.5", "line 1, col 10", "'1.5'"},
      {"burst@0+60=0", "line 1, col 12", "'0'"},
      {"video@0+60; web@5", "line 1, col 17", "'5'"},
      {"video@0+60\nbogus@5+5", "line 2, col 1", "'bogus'"},
      {"bad name: video@0+60", "line 1, col 1", "'bad name'"},
  };
  for (const Case& c : cases) {
    std::string error = ParseError(c.spec);
    EXPECT_NE(error.find(c.expected_position), std::string::npos)
        << c.spec << " -> " << error;
    EXPECT_NE(error.find(c.expected_token), std::string::npos)
        << c.spec << " -> " << error;
  }
}

// Minimized regressions: numbers that cannot become an exact SimTime window
// are rejected with a position, like their fault-plan twins.
TEST(ScenarioGrammar, RejectsNumbersThatCannotBecomeAWindow) {
  struct Case {
    const char* spec;
    const char* expected_position;
    const char* expected_token;
  };
  const std::vector<Case> cases = {
      {"web@nan+60", "line 1, col 5", "'nan'"},
      {"web@0+inf", "line 1, col 7", "'inf'"},
      {"web@1e300+60", "line 1, col 5", "'1e300'"},
      {"web@0+1e-9", "line 1, col 7", "'1e-9'"},
      {"web@0+1=inf", "line 1, col 9", "'inf'"},
      {"day: sync@0+60=nan", "line 1, col 16", "'nan'"},
  };
  for (const Case& c : cases) {
    std::string error = ParseError(c.spec);
    EXPECT_NE(error.find(c.expected_position), std::string::npos)
        << c.spec << " -> " << error;
    EXPECT_NE(error.find(c.expected_token), std::string::npos)
        << c.spec << " -> " << error;
  }
}

TEST(ScenarioGrammar, RenderingIsExact) {
  Scenario scenario = MustParse("web@3600.125+60;sync@0+90=33.3333333");
  EXPECT_EQ(scenario.ToString(), "web@3600.125+60=5;sync@0+90=33.3333333");
  Scenario reparsed = MustParse(scenario.ToString());
  ASSERT_EQ(reparsed.phases.size(), 2u);
  EXPECT_EQ(reparsed.phases[0].at, odsim::SimDuration::Micros(3600125000));
  EXPECT_EQ(reparsed.phases[1].param, 33.3333333);
  // A builder param no decimal spelling matches still replays exactly.
  Scenario built = ScenarioBuilder().Sync(0, 60, 100.0 / 3.0).Build();
  EXPECT_EQ(MustParse(built.ToString()).phases[0].param, 100.0 / 3.0);
}

// A bare tag names an empty scenario; it keeps the name on the way back.
TEST(ScenarioGrammar, NamedEmptyScenarioReplays) {
  Scenario scenario = MustParse("day:");
  EXPECT_EQ(scenario.name, "day");
  EXPECT_TRUE(scenario.phases.empty());
  EXPECT_EQ(scenario.ToString(), "day:");
  EXPECT_EQ(MustParse(scenario.ToString()).name, "day");
}

TEST(ScenarioGrammar, KindNamesMatchTheGrammar) {
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kVideo), "video");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kWeb), "web");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kMap), "map");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kSpeech), "speech");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kComposite), "composite");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kBurst), "burst");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kSync), "sync");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kIdle), "idle");
  EXPECT_STREQ(odscenario::PhaseKindName(PhaseKind::kGap), "gap");
}

TEST(ScenarioEnvironment, GapsBecomeMatchedFaultWindows) {
  const Scenario* commuter = odscenario::FindScenario("commuter_day");
  ASSERT_NE(commuter, nullptr);
  odfault::FaultPlan plan = commuter->DerivedFaultPlan();
  // The tunnel is a full outage; the office edge keeps 30% of nominal.
  EXPECT_EQ(plan.ToString(), "outage@180+120;bandwidth@540+60=0.3");
  // The derived plan replays from its own canonical stamp.
  odfault::FaultPlan reparsed;
  std::string error;
  ASSERT_TRUE(odfault::FaultPlan::Parse(plan.ToString(), &reparsed, &error))
      << error;
  EXPECT_EQ(plan.ToString(), reparsed.ToString());
}

TEST(ScenarioQueries, ActivityAndCoverageWindows) {
  const Scenario* commuter = odscenario::FindScenario("commuter_day");
  ASSERT_NE(commuter, nullptr);
  auto t = [](double s) { return odsim::SimDuration::Seconds(s); };
  EXPECT_TRUE(commuter->ActiveAt(t(100)));    // video
  EXPECT_FALSE(commuter->CoverageAt(t(200))); // the tunnel
  EXPECT_TRUE(commuter->ActiveAt(t(200)));    // video keeps playing in it
  EXPECT_FALSE(commuter->CoverageAt(t(550))); // weak-coverage stretch
  EXPECT_TRUE(commuter->ActiveAt(t(890)));    // sync runs to the end
  EXPECT_TRUE(commuter->CoverageAt(t(890)));
  EXPECT_FALSE(commuter->ActiveAt(t(950)));   // past the scenario
}

TEST(ScenarioLibrary, SixNamedScenariosRoundTrip) {
  const auto& library = odscenario::ScenarioLibrary();
  ASSERT_EQ(library.size(), 6u);
  const std::vector<std::string> expected = {
      "commuter_day", "bursty_morning", "background_sync",
      "video_evening", "office_mix",    "coffee_shop"};
  EXPECT_EQ(odscenario::ScenarioNames(), expected);
  for (const Scenario& scenario : library) {
    EXPECT_FALSE(scenario.phases.empty()) << scenario.name;
    EXPECT_GT(scenario.Duration(), odsim::SimDuration::Zero())
        << scenario.name;
    EXPECT_EQ(odscenario::FindScenario(scenario.name), &scenario);
  }
  EXPECT_EQ(odscenario::FindScenario("nope"), nullptr);
}

}  // namespace
