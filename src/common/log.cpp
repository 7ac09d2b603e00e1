#include "common/log.hpp"

#include <cstdio>

namespace sdt {

namespace {
const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void logMessage(LogLevel level, const std::string& msg) {
  if (level < kMinLogLevel) return;
  std::fprintf(stderr, "[sdt %-5s] %s\n", levelName(level), msg.c_str());
}

}  // namespace sdt
