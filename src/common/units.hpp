// Time, size, and rate units used across SDT.
//
// Simulation time is an integral count of nanoseconds (sim::Time would be a
// circular name here, so the alias lives in common). Rates are kept in Gbps
// (== bits/ns) so that  bytes * 8 / gbps  yields nanoseconds directly.
#pragma once

#include <cstdint>

namespace sdt {

/// Simulation time in nanoseconds.
using TimeNs = std::int64_t;

inline constexpr TimeNs kNsPerUs = 1'000;
inline constexpr TimeNs kNsPerMs = 1'000'000;
inline constexpr TimeNs kNsPerSec = 1'000'000'000;

constexpr TimeNs usToNs(double us) { return static_cast<TimeNs>(us * kNsPerUs); }
constexpr TimeNs msToNs(double ms) { return static_cast<TimeNs>(ms * kNsPerMs); }
constexpr TimeNs secToNs(double s) { return static_cast<TimeNs>(s * kNsPerSec); }

constexpr double nsToUs(TimeNs t) { return static_cast<double>(t) / kNsPerUs; }
constexpr double nsToSec(TimeNs t) { return static_cast<double>(t) / kNsPerSec; }

/// Link/NIC rate in gigabits per second. 1 Gbps == 1 bit per nanosecond,
/// so serialization delay for `bytes` at `gbps` is  bytes*8/gbps  ns.
struct Gbps {
  double value = 0.0;

  constexpr Gbps() = default;
  constexpr explicit Gbps(double v) : value(v) {}

  /// Nanoseconds needed to serialize `bytes` onto a wire of this rate.
  [[nodiscard]] constexpr TimeNs serializationNs(std::int64_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) * 8.0 / value);
  }
  /// Bytes transmittable within `ns` nanoseconds at this rate.
  [[nodiscard]] constexpr double bytesIn(TimeNs ns) const {
    return static_cast<double>(ns) * value / 8.0;
  }

  constexpr auto operator<=>(const Gbps&) const = default;
};

constexpr Gbps operator*(Gbps r, double f) { return Gbps{r.value * f}; }
constexpr Gbps operator/(Gbps r, double f) { return Gbps{r.value / f}; }

inline constexpr std::int64_t kKiB = 1024;
inline constexpr std::int64_t kMiB = 1024 * 1024;
inline constexpr std::int64_t kGiB = 1024 * 1024 * 1024;

}  // namespace sdt
