#include "src/util/logging.h"

#include <gtest/gtest.h>

namespace odutil {
namespace {

// Sets a level for one test and restores the one before it.
class LogLevelGuard {
 public:
  explicit LogLevelGuard(LogLevel level) : previous_(SetLogLevel(level)) {}
  ~LogLevelGuard() { SetLogLevel(previous_); }

 private:
  LogLevel previous_;
};

TEST(LoggingTest, SetReturnsPrevious) {
  LogLevelGuard guard(LogLevel::kInfo);
  EXPECT_EQ(SetLogLevel(LogLevel::kError), LogLevel::kInfo);
  EXPECT_EQ(SetLogLevel(LogLevel::kError), LogLevel::kError);
}

TEST(LoggingTest, LevelsAreOrdered) {
  EXPECT_LT(LogLevel::kDebug, LogLevel::kInfo);
  EXPECT_LT(LogLevel::kInfo, LogLevel::kWarn);
  EXPECT_LT(LogLevel::kWarn, LogLevel::kError);
  EXPECT_LT(LogLevel::kError, LogLevel::kNone);
}

TEST(LoggingTest, FilteredMessagesDoNotReachStderr) {
  LogLevelGuard guard(LogLevel::kNone);
  testing::internal::CaptureStderr();
  OD_LOG_ERROR("should be filtered %d", 42);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(LoggingTest, EmittedMessagesCarryLevelAndText) {
  LogLevelGuard guard(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  OD_LOG_WARN("supply low: %.1f J", 12.5);
  std::string out = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[WARN]"), std::string::npos);
  EXPECT_NE(out.find("supply low: 12.5 J"), std::string::npos);
}

TEST(LoggingTest, ThresholdIsInclusive) {
  LogLevelGuard guard(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  OD_LOG_INFO("below");
  OD_LOG_WARN("at");
  std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("below"), std::string::npos);
  EXPECT_NE(out.find("at"), std::string::npos);
}

}  // namespace
}  // namespace odutil
