#include "src/util/logging.h"

#include <cstdio>
#include <cstring>
#include <string>

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
  // The whole line goes out in one fwrite, which holds stderr's lock, so
  // lines logged from parallel sweep cells never splice into each other.
  char stack[512];
  const int prefix =
      std::snprintf(stack, sizeof(stack), "[%s] ", LevelName(level));
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int body = std::vsnprintf(stack + prefix, sizeof(stack) - prefix, fmt,
                                  args);
  va_end(args);
  if (body < 0) {
    va_end(again);
    return;
  }
  const size_t length = static_cast<size_t>(prefix + body) + 1;  // + '\n'.
  std::string heap;
  char* line = stack;
  if (length > sizeof(stack)) {
    heap.resize(length);  // The body's NUL lands where '\n' goes.
    std::memcpy(heap.data(), stack, static_cast<size_t>(prefix));
    std::vsnprintf(heap.data() + prefix, static_cast<size_t>(body) + 1, fmt,
                   again);
    line = heap.data();
  }
  va_end(again);
  line[length - 1] = '\n';
  std::fwrite(line, 1, length, stderr);
}

}  // namespace odutil
