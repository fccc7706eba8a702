#include "src/fault/fault_plan.h"

#include <gtest/gtest.h>

namespace odfault {
namespace {

FaultPlan MustParse(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(spec, &plan, &error)) << error;
  return plan;
}

std::string ParseError(const std::string& spec) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &error)) << spec;
  EXPECT_FALSE(error.empty()) << spec;
  return error;
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  FaultPlan plan = MustParse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.ToString(), "");
}

TEST(FaultPlanTest, ParsesSingleEvent) {
  FaultPlan plan = MustParse("bandwidth@20+30=0.25");
  ASSERT_EQ(plan.events.size(), 1u);
  const FaultEvent& event = plan.events[0];
  EXPECT_EQ(event.kind, FaultKind::kBandwidth);
  EXPECT_DOUBLE_EQ(event.at.seconds(), 20.0);
  EXPECT_DOUBLE_EQ(event.duration.seconds(), 30.0);
  EXPECT_DOUBLE_EQ(event.magnitude, 0.25);
}

TEST(FaultPlanTest, ParsesAllKindsAndRoundTrips) {
  const std::string spec =
      "bandwidth@20+30=0.1;outage@60+10;loss@90+15=0.3;stall@100+5;"
      "disk@110+20=8;dropout@130+10;stale@150+10;nan@170+5;gauge@180+10=3;"
      "ramp@200+60=1.5";
  FaultPlan plan = MustParse(spec);
  ASSERT_EQ(plan.events.size(), 10u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kOutage);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kLossBurst);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kServerStall);
  EXPECT_EQ(plan.events[4].kind, FaultKind::kDiskLatency);
  EXPECT_EQ(plan.events[5].kind, FaultKind::kSampleDropout);
  EXPECT_EQ(plan.events[6].kind, FaultKind::kStaleTelemetry);
  EXPECT_EQ(plan.events[7].kind, FaultKind::kNanTelemetry);
  EXPECT_EQ(plan.events[8].kind, FaultKind::kGaugeDrift);
  EXPECT_EQ(plan.events[9].kind, FaultKind::kGaugeRamp);
  // ToString is canonical: parsing its own output must reproduce it.
  EXPECT_EQ(plan.ToString(), spec);
  EXPECT_EQ(MustParse(plan.ToString()).ToString(), plan.ToString());
}

TEST(FaultPlanTest, EveryKindRoundTripsIndividually) {
  for (const char* spec :
       {"bandwidth@1.5+2.25=0.125", "outage@0+1", "loss@3+4=0.45",
        "stall@5+6", "disk@7+8=2.5", "dropout@9+10", "stale@11+12",
        "nan@13+14", "gauge@15+16=0.5", "ramp@17+18=1.3"}) {
    FaultPlan plan = MustParse(spec);
    EXPECT_EQ(plan.ToString(), spec);
    EXPECT_EQ(MustParse(plan.ToString()).ToString(), spec);
  }
}

TEST(FaultPlanTest, FractionalSecondsSurviveTheRoundTrip) {
  FaultPlan plan = MustParse("loss@0.5+1.25=0.05");
  EXPECT_DOUBLE_EQ(plan.events[0].at.seconds(), 0.5);
  EXPECT_DOUBLE_EQ(plan.events[0].duration.seconds(), 1.25);
  EXPECT_EQ(MustParse(plan.ToString()).ToString(), plan.ToString());
}

TEST(FaultPlanTest, MagnitudeDefaultsPerKind) {
  EXPECT_DOUBLE_EQ(MustParse("bandwidth@0+1").events[0].magnitude, 0.1);
  EXPECT_DOUBLE_EQ(MustParse("loss@0+1").events[0].magnitude, 0.3);
  EXPECT_DOUBLE_EQ(MustParse("disk@0+1").events[0].magnitude, 8.0);
  EXPECT_DOUBLE_EQ(MustParse("gauge@0+1").events[0].magnitude, 3.0);
  EXPECT_DOUBLE_EQ(MustParse("ramp@0+1").events[0].magnitude, 2.0);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  ParseError("meteor@0+1");          // Unknown kind.
  ParseError("outage");              // No window.
  ParseError("outage@5");            // No duration.
  ParseError("outage@-1+5");         // Negative start.
  ParseError("outage@5+0");          // Zero duration.
  ParseError("outage@x+5");          // Unparseable number.
  ParseError("bandwidth@0+1=0");     // Fraction must be > 0.
  ParseError("bandwidth@0+1=1.5");   // Fraction must be <= 1.
  ParseError("loss@0+1=1");          // Loss must be < 1.
  ParseError("disk@0+1=-2");         // Scale must be > 0.
  ParseError("outage@0+1=0.5");      // Outage takes no magnitude.
  ParseError("stall@0+1=0.5");       // Stall takes no magnitude.
  ParseError("dropout@0+1=0.5");     // Dropout takes no magnitude.
  ParseError("stale@0+1=0.5");       // Stale takes no magnitude.
  ParseError("nan@0+1=0.5");         // NaN takes no magnitude.
  ParseError("gauge@0+1=0");         // Gauge scale must be > 0.
  ParseError("gauge@0+1=-3");        // Gauge scale must be > 0.
  ParseError("ramp@0+1=0");          // Ramp endpoint must be > 0.
  ParseError("ramp@0+1=-1.5");       // Ramp endpoint must be > 0.
}

TEST(FaultPlanTest, EmptyPiecesBetweenSeparatorsAreSkipped) {
  // Tolerates trailing or doubled ';' (easy to produce when gluing specs
  // together on a command line).
  EXPECT_EQ(MustParse("outage@0+1;;loss@2+1=0.3;").events.size(), 2u);
}

TEST(FaultPlanTest, ErrorNamesTheOffendingEvent) {
  EXPECT_NE(ParseError("outage@0+1;meteor@5+1").find("meteor"),
            std::string::npos);
}

TEST(FaultPlanTest, NewlinesSeparateEventsLikeSemicolons) {
  FaultPlan plan = MustParse("outage@0+1\nloss@2+1=0.3\n\n  disk@4+1=2\n");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.ToString(), "outage@0+1;loss@2+1=0.3;disk@4+1=2");
}

// Every rejection names the line, the column, and the offending token, so
// a bad --fault-plan flag is a one-glance fix (same diagnostic shape as
// the scenario grammar).
TEST(FaultPlanTest, ErrorsCarryLineColumnAndToken) {
  struct Case {
    const char* spec;
    const char* expected_position;
    const char* expected_token;
  };
  const Case cases[] = {
      {"meteor@0+1", "line 1, col 1", "'meteor'"},
      {"outage@5", "line 1, col 8", "'5'"},
      {"outage@-1+5", "line 1, col 8", "'-1'"},
      {"outage@5+0", "line 1, col 10", "'0'"},
      {"outage@0+1=0.5", "line 1, col 11", "'=0.5'"},
      {"bandwidth@0+1=1.5", "line 1, col 15", "'1.5'"},
      {"gauge@0+1=x", "line 1, col 11", "'x'"},
      {"outage@0+1;meteor@5+1", "line 1, col 12", "'meteor'"},
      {"outage@0+1\n  meteor@5+1", "line 2, col 3", "'meteor'"},
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
// are rejected with a position instead of reaching an out-of-range int64
// cast (nan, inf, 1e300) or a window that renders as "+0" (1e-9).
TEST(FaultPlanTest, RejectsNumbersThatCannotBecomeAWindow) {
  struct Case {
    const char* spec;
    const char* expected_position;
    const char* expected_token;
  };
  const Case cases[] = {
      {"outage@nan+1", "line 1, col 8", "'nan'"},
      {"outage@0+inf", "line 1, col 10", "'inf'"},
      {"outage@1e300+1", "line 1, col 8", "'1e300'"},
      {"outage@0+1e-9", "line 1, col 10", "'1e-9'"},
      {"outage@999999999+2", "line 1, col 18", "'2'"},
      {"gauge@0+1=inf", "line 1, col 11", "'inf'"},
      {"loss@0+1=nan", "line 1, col 10", "'nan'"},
  };
  for (const Case& c : cases) {
    std::string error = ParseError(c.spec);
    EXPECT_NE(error.find(c.expected_position), std::string::npos)
        << c.spec << " -> " << error;
    EXPECT_NE(error.find(c.expected_token), std::string::npos)
        << c.spec << " -> " << error;
  }
  // The bounds themselves are windows.
  EXPECT_EQ(MustParse("outage@0+0.000001").events[0].duration.micros(), 1);
  EXPECT_EQ(MustParse("outage@999999999+1").ToString(), "outage@999999999+1");
}

// Canonical rendering is exact: a number %g would cut to six significant
// digits keeps as many as it needs to read back to the same value.
TEST(FaultPlanTest, RenderingKeepsEveryDigitThatMatters) {
  FaultPlan plan = MustParse("outage@12345.25+1;gauge@0+60=1.0000001");
  EXPECT_EQ(plan.ToString(), "outage@12345.25+1;gauge@0+60=1.0000001");
  FaultPlan reparsed = MustParse(plan.ToString());
  ASSERT_EQ(reparsed.events.size(), 2u);
  EXPECT_EQ(reparsed.events[0].at, odsim::SimDuration::Micros(12345250000));
  EXPECT_EQ(reparsed.events[1].magnitude, 1.0000001);
  // Values %g already spells exactly keep their short spelling.
  EXPECT_EQ(MustParse("loss@0.5+1.25=0.05").ToString(), "loss@0.5+1.25=0.05");
}

TEST(FaultPlanTest, CommentsRunToTheEndOfTheLine) {
  FaultPlan plan = MustParse(
      "# the storm\n"
      "outage@0+1  # tunnel; loss@1+1 is commented out\n"
      "disk@4+1=2");
  EXPECT_EQ(plan.ToString(), "outage@0+1;disk@4+1=2");
}

// The "name:" tag belongs to scenarios; a plan rejects it as an unknown
// kind at the tag's position.
TEST(FaultPlanTest, RejectsTheScenarioNameTag) {
  std::string error = ParseError("storm: outage@0+1");
  EXPECT_NE(error.find("line 1, col 1"), std::string::npos) << error;
  EXPECT_NE(error.find("'storm: outage'"), std::string::npos) << error;
}

TEST(FaultPlanTest, KindNamesMatchTheGrammar) {
  EXPECT_STREQ(FaultKindName(FaultKind::kBandwidth), "bandwidth");
  EXPECT_STREQ(FaultKindName(FaultKind::kOutage), "outage");
  EXPECT_STREQ(FaultKindName(FaultKind::kLossBurst), "loss");
  EXPECT_STREQ(FaultKindName(FaultKind::kServerStall), "stall");
  EXPECT_STREQ(FaultKindName(FaultKind::kDiskLatency), "disk");
  EXPECT_STREQ(FaultKindName(FaultKind::kSampleDropout), "dropout");
  EXPECT_STREQ(FaultKindName(FaultKind::kStaleTelemetry), "stale");
  EXPECT_STREQ(FaultKindName(FaultKind::kNanTelemetry), "nan");
  EXPECT_STREQ(FaultKindName(FaultKind::kGaugeDrift), "gauge");
  EXPECT_STREQ(FaultKindName(FaultKind::kGaugeRamp), "ramp");
}

TEST(FaultPlanTest, TelemetryKindPredicate) {
  EXPECT_TRUE(IsTelemetryFault(FaultKind::kSampleDropout));
  EXPECT_TRUE(IsTelemetryFault(FaultKind::kStaleTelemetry));
  EXPECT_TRUE(IsTelemetryFault(FaultKind::kNanTelemetry));
  EXPECT_TRUE(IsTelemetryFault(FaultKind::kGaugeDrift));
  EXPECT_TRUE(IsTelemetryFault(FaultKind::kGaugeRamp));
  EXPECT_FALSE(IsTelemetryFault(FaultKind::kBandwidth));
  EXPECT_FALSE(IsTelemetryFault(FaultKind::kOutage));
  EXPECT_FALSE(IsTelemetryFault(FaultKind::kLossBurst));
  EXPECT_FALSE(IsTelemetryFault(FaultKind::kServerStall));
  EXPECT_FALSE(IsTelemetryFault(FaultKind::kDiskLatency));
}

}  // namespace
}  // namespace odfault
