#include "src/harness/flags.h"

#include <gtest/gtest.h>

namespace odharness {
namespace {

TEST(FlagsTest, PositionalThenFlags) {
  Flags flags({"run", "fig04", "--trials", "3", "--jobs=8"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "fig04");
  EXPECT_EQ(flags.GetInt("trials", 0), 3);
  EXPECT_EQ(flags.GetInt("jobs", 1), 8);
}

TEST(FlagsTest, EqualsAndSpaceFormsAreEquivalent) {
  Flags space({"--seed", "42"});
  Flags equals({"--seed=42"});
  EXPECT_EQ(space.GetUint64("seed", 0), 42u);
  EXPECT_EQ(equals.GetUint64("seed", 0), 42u);
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  Flags flags({"run"});
  EXPECT_FALSE(flags.Has("trials"));
  EXPECT_EQ(flags.GetString("out", "artifacts"), "artifacts");
  EXPECT_DOUBLE_EQ(flags.GetDouble("minutes", 22.0), 22.0);
  EXPECT_EQ(flags.GetInt("jobs", 1), 1);
}

TEST(FlagsTest, BooleanFlagsHaveNoValue) {
  Flags flags({"lifetime", "--lowest", "--joules", "9000"});
  EXPECT_TRUE(flags.Has("lowest"));
  EXPECT_DOUBLE_EQ(flags.GetDouble("joules", 0.0), 9000.0);
}

TEST(FlagsTest, ValidateAcceptsDeclaredFlags) {
  Flags flags({"goal", "--minutes", "25", "--bursty"});
  std::string error;
  EXPECT_TRUE(flags.Validate({"minutes", "joules"}, {"bursty"}, &error));
  EXPECT_TRUE(error.empty());
}

TEST(FlagsTest, ValidateRejectsUnknownFlag) {
  Flags flags({"run", "fig04", "--trails", "3"});
  std::string error;
  EXPECT_FALSE(flags.Validate({"trials", "seed"}, {}, &error));
  EXPECT_NE(error.find("trails"), std::string::npos);
}

TEST(FlagsTest, ValidateRejectsValueFlagWithoutValue) {
  Flags flags({"run", "fig04", "--trials"});
  std::string error;
  EXPECT_FALSE(flags.Validate({"trials"}, {}, &error));
}

TEST(FlagsTest, GetStringForValuelessFlagReturnsFallback) {
  Flags flags({"--bursty"});
  EXPECT_TRUE(flags.Has("bursty"));
  EXPECT_EQ(flags.GetString("bursty", "x"), "x");
}

// Regression: positionals after a flag pair used to be rejected, forcing
// `odbench run all --jobs 4` word order.  Both orders must now parse.
TEST(FlagsTest, PositionalsInterleaveWithFlags) {
  Flags flags({"run", "--jobs", "4", "all", "--trials=3"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "all");
  EXPECT_EQ(flags.GetInt("jobs", 1), 4);
  EXPECT_EQ(flags.GetInt("trials", 0), 3);
}

TEST(FlagsTest, DoubleDashEndsFlagParsing) {
  Flags flags({"run", "--jobs", "2", "--", "--trials", "fig04"});
  EXPECT_EQ(flags.GetInt("jobs", 1), 2);
  EXPECT_FALSE(flags.Has("trials"));
  ASSERT_EQ(flags.positional().size(), 3u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "--trials");
  EXPECT_EQ(flags.positional()[2], "fig04");
}

// Regression: Has() used to scan value tokens too, so `--out=--trials`
// made Has("trials") true.  Only flag-name tokens may match.
TEST(FlagsTest, ValueTokensAreNotFlagNames) {
  Flags flags({"--out=--trials"});
  EXPECT_TRUE(flags.Has("out"));
  EXPECT_FALSE(flags.Has("trials"));
  EXPECT_EQ(flags.GetString("out", ""), "--trials");
}

// Regression: GetInt used atoi and silently returned 0 for garbage, so
// `--trials five` ran zero-trial experiments instead of failing.
TEST(FlagsTest, GetIntRejectsGarbage) {
  EXPECT_THROW(Flags({"--trials", "five"}).GetInt("trials", 5), FlagError);
  EXPECT_THROW(Flags({"--trials", "12abc"}).GetInt("trials", 5), FlagError);
  EXPECT_THROW(Flags({"--trials="}).GetInt("trials", 5), FlagError);
  EXPECT_THROW(Flags({"--trials", "99999999999999999999"}).GetInt("trials", 5),
               FlagError);
  EXPECT_EQ(Flags({"--trials", "-2"}).GetInt("trials", 5), -2);
}

TEST(FlagsTest, GetDoubleRejectsGarbage) {
  EXPECT_THROW(Flags({"--minutes", "abc"}).GetDouble("minutes", 1.0),
               FlagError);
  EXPECT_THROW(Flags({"--minutes", "1.5x"}).GetDouble("minutes", 1.0),
               FlagError);
  EXPECT_THROW(Flags({"--minutes="}).GetDouble("minutes", 1.0), FlagError);
  EXPECT_DOUBLE_EQ(Flags({"--minutes", "22.5"}).GetDouble("minutes", 1.0),
                   22.5);
}

// Regression: strtod accepts "nan" and "inf", which then reached
// SimDuration casts (OD_CHECK aborts, float-cast-overflow UB) or silently
// disabled the run-all watchdog.
TEST(FlagsTest, GetDoubleRejectsNonFinite) {
  for (const char* bad : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                          "1e400", "-1e400"}) {
    EXPECT_THROW(Flags({"--minutes", bad}).GetDouble("minutes", 1.0),
                 FlagError)
        << bad;
  }
  EXPECT_DOUBLE_EQ(Flags({"--minutes", "-5"}).GetDouble("minutes", 1.0), -5.0);
}

TEST(FlagsTest, GetNonNegativeDoubleEnforcesItsRange) {
  EXPECT_THROW(Flags({"--rtol", "-1e-9"}).GetNonNegativeDouble("rtol", 0.0),
               FlagError);
  EXPECT_THROW(Flags({"--rtol", "nan"}).GetNonNegativeDouble("rtol", 0.0),
               FlagError);
  EXPECT_DOUBLE_EQ(Flags({"--rtol", "0"}).GetNonNegativeDouble("rtol", 1.0),
                   0.0);
  EXPECT_DOUBLE_EQ(
      Flags({"--max-shift", "1e9"}).GetNonNegativeDouble("max-shift", 0.0, 1e9),
      1e9);
  EXPECT_THROW(
      Flags({"--max-shift", "1.5e9"}).GetNonNegativeDouble("max-shift", 0.0,
                                                           1e9),
      FlagError);
  EXPECT_DOUBLE_EQ(Flags({}).GetNonNegativeDouble("rtol", 0.25), 0.25);
}

TEST(FlagsTest, GetPositiveDoubleEnforcesItsRange) {
  for (const char* bad : {"0", "-0", "-5", "nan", "inf"}) {
    EXPECT_THROW(Flags({"--minutes", bad}).GetPositiveDouble("minutes", 22.0),
                 FlagError)
        << bad;
  }
  EXPECT_THROW(
      Flags({"--minutes", "2e7"}).GetPositiveDouble("minutes", 22.0, 1e7),
      FlagError);
  EXPECT_DOUBLE_EQ(
      Flags({"--minutes", "0.5"}).GetPositiveDouble("minutes", 22.0, 1e7), 0.5);
  EXPECT_DOUBLE_EQ(Flags({"--lowest"}).GetPositiveDouble("lowest", 3.0), 3.0);
}

TEST(FlagsTest, RangeErrorsNameTheFlagAndTheBound) {
  try {
    Flags({"--max-shift", "2e9"}).GetNonNegativeDouble("max-shift", 0.0, 1e9);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(), "--max-shift must be >= 0 and <= 1e+09: '2e9'");
  }
  try {
    Flags({"--joules", "-1"}).GetPositiveDouble("joules", 1.0);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(), "--joules must be > 0: '-1'");
  }
}

TEST(FlagsTest, GetUint64RejectsGarbageAndNegatives) {
  EXPECT_THROW(Flags({"--seed", "xyz"}).GetUint64("seed", 1), FlagError);
  EXPECT_THROW(Flags({"--seed", "-3"}).GetUint64("seed", 1), FlagError);
  EXPECT_EQ(Flags({"--seed", "18446744073709551615"}).GetUint64("seed", 1),
            18446744073709551615ull);
}

TEST(FlagsTest, ValidateRejectsBoolFlagWithValue) {
  Flags flags({"--lowest=yes"});
  std::string error;
  EXPECT_FALSE(flags.Validate({}, {"lowest"}, &error));
  EXPECT_NE(error.find("does not take a value"), std::string::npos);
}

}  // namespace
}  // namespace odharness
