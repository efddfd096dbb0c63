// Minimal leveled logging.
//
// Thread-safe (a single mutex around the sink), cheap when disabled (level
// check before formatting), and silent by default at DEBUG so simulation
// inner loops stay fast. Not a general-purpose logging framework on purpose.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace sbroker::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level (kWarn); messages below it are dropped before
/// formatting.
LogLevel log_level();

/// Emits one line: "[LEVEL] <component>: <message>\n" to stderr.
void log_line(LogLevel level, std::string_view component, std::string_view message);

namespace detail {

class LogStream {
 public:
  LogStream(LogLevel level, std::string_view component)
      : level_(level), component_(component), enabled_(level >= log_level()) {}
  ~LogStream() {
    if (enabled_) log_line(level_, component_, stream_.str());
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace detail

#define SBROKER_LOG(level, component) \
  ::sbroker::util::detail::LogStream(level, component)
#define SBROKER_DEBUG(component) SBROKER_LOG(::sbroker::util::LogLevel::kDebug, component)
#define SBROKER_INFO(component) SBROKER_LOG(::sbroker::util::LogLevel::kInfo, component)
#define SBROKER_WARN(component) SBROKER_LOG(::sbroker::util::LogLevel::kWarn, component)
#define SBROKER_ERROR(component) SBROKER_LOG(::sbroker::util::LogLevel::kError, component)

}  // namespace sbroker::util
