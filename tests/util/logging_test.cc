#include "src/util/logging.h"

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

// A line longer than the logger's stack buffer is still written whole.
TEST(LoggingTest, LongLinesAreWrittenWhole) {
  LogLevelGuard guard(LogLevel::kWarn);
  const std::string message(2000, 'x');
  testing::internal::CaptureStderr();
  OD_LOG_WARN("%s|%d", message.c_str(), 7);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] " + message + "|7\n");
}

// Parallel sweep cells log from several threads at once; every captured
// line must still be one whole message, never two spliced together.
TEST(LoggingTest, ConcurrentLinesStayWhole) {
  LogLevelGuard guard(LogLevel::kWarn);
  constexpr int kThreads = 4;
  constexpr int kLines = 1000;
  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        OD_LOG_WARN("thread %d line %d", t, i);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::istringstream out(testing::internal::GetCapturedStderr());

  std::set<std::pair<int, int>> seen;
  std::string line;
  std::string first_spliced;
  int lines = 0;
  int spliced = 0;
  while (std::getline(out, line)) {
    ++lines;
    int t = -1;
    int i = -1;
    if (std::sscanf(line.c_str(), "[WARN] thread %d line %d", &t, &i) == 2 &&
        line == "[WARN] thread " + std::to_string(t) + " line " +
                    std::to_string(i)) {
      seen.emplace(t, i);
    } else if (spliced++ == 0) {
      first_spliced = line;
    }
  }
  EXPECT_EQ(spliced, 0) << "first spliced line: " << first_spliced;
  EXPECT_EQ(lines, kThreads * kLines);
  EXPECT_EQ(seen.size(), static_cast<size_t>(kThreads * kLines));
}

}  // namespace
}  // namespace odutil
