// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sdt {

/// Split `s` on `delim`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string strFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "1.50 KiB" / "23.4 MiB" style human-readable byte counts.
std::string humanBytes(std::int64_t bytes);

/// "12.3us" / "4.56ms" / "1.23s" style human-readable durations (ns input).
std::string humanTime(std::int64_t ns);

}  // namespace sdt
