#include "common/strings.hpp"

#include <cstdarg>
#include <cstdio>

namespace sdt {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  const auto isSpace = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
  };
  while (!s.empty() && isSpace(s.front())) s.remove_prefix(1);
  while (!s.empty() && isSpace(s.back())) s.remove_suffix(1);
  return s;
}

std::string strFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string humanBytes(std::int64_t bytes) {
  const char* suffix[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int idx = 0;
  while (v >= 1024.0 && idx < 4) {
    v /= 1024.0;
    ++idx;
  }
  return idx == 0 ? strFormat("%lld B", static_cast<long long>(bytes))
                  : strFormat("%.2f %s", v, suffix[idx]);
}

std::string humanTime(std::int64_t ns) {
  if (ns < 1'000) return strFormat("%lldns", static_cast<long long>(ns));
  if (ns < 1'000'000) return strFormat("%.2fus", static_cast<double>(ns) / 1e3);
  if (ns < 1'000'000'000) return strFormat("%.2fms", static_cast<double>(ns) / 1e6);
  return strFormat("%.3fs", static_cast<double>(ns) / 1e9);
}

}  // namespace sdt
