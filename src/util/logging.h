// Minimal leveled logger.
//
// The simulator is deterministic and single-threaded, so the logger is
// deliberately simple: printf-style formatting to stderr, filtered by a
// global level.  Benches set the level to kWarn so that figure output stays
// clean; tests may raise it to kDebug when diagnosing.

#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <cstdarg>

namespace odutil {

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kNone = 4,
};

// Sets the minimum level that will be emitted.  Returns the previous level.
LogLevel SetLogLevel(LogLevel level);

// printf-style logging.  The format string is checked by the compiler.
void Log(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace odutil

#define OD_LOG_DEBUG(...) ::odutil::Log(::odutil::LogLevel::kDebug, __VA_ARGS__)
#define OD_LOG_INFO(...) ::odutil::Log(::odutil::LogLevel::kInfo, __VA_ARGS__)
#define OD_LOG_WARN(...) ::odutil::Log(::odutil::LogLevel::kWarn, __VA_ARGS__)
#define OD_LOG_ERROR(...) ::odutil::Log(::odutil::LogLevel::kError, __VA_ARGS__)

#endif  // SRC_UTIL_LOGGING_H_
