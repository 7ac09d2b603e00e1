// Tiny leveled logger. Not thread-safe by design: the simulator core is
// single-threaded (discrete-event); benches that parallelize do so across
// processes, not within an engine.
#pragma once

#include <sstream>
#include <string>

namespace sdt {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Messages below this level are discarded.
inline constexpr LogLevel kMinLogLevel = LogLevel::kWarn;

void logMessage(LogLevel level, const std::string& msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { logMessage(level_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

#define SDT_LOG(level)                          \
  if (::sdt::kMinLogLevel <= ::sdt::LogLevel::level) \
  ::sdt::detail::LogLine(::sdt::LogLevel::level)

#define SDT_DEBUG SDT_LOG(kDebug)
#define SDT_INFO SDT_LOG(kInfo)
#define SDT_WARN SDT_LOG(kWarn)
#define SDT_ERROR SDT_LOG(kError)

}  // namespace sdt
