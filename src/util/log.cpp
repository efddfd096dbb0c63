#include "util/log.h"

#include <cstdio>
#include <mutex>

namespace sbroker::util {
namespace {

constexpr LogLevel kMinLevel = LogLevel::kWarn;
std::mutex g_sink_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return kMinLevel; }

void log_line(LogLevel level, std::string_view component, std::string_view message) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace sbroker::util
