// Minimal leveled logger.
//
// printf-style formatting to stderr, filtered by a global level.  Benches
// keep the default kWarn so that figure output stays clean; tests may lower
// it to kDebug when diagnosing.  Each simulation is single-threaded, but an
// experiment may run several on parallel threads (sweep cells, trial
// pools), so Log is thread-safe: each line is formatted whole and written
// with one fwrite, and lines from different threads never splice.  Set the
// level before such threads start; it is read unsynchronized.

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
