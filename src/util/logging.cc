#include "src/util/logging.h"

#include <cstdio>

namespace odutil {
namespace {

LogLevel g_level = LogLevel::kWarn;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kNone:
      return "NONE";
  }
  return "?";
}

}  // namespace

LogLevel SetLogLevel(LogLevel level) {
  LogLevel previous = g_level;
  g_level = level;
  return previous;
}

void Log(LogLevel level, const char* fmt, ...) {
  if (level < g_level) {
    return;
  }
  std::fprintf(stderr, "[%s] ", LevelName(level));
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace odutil
