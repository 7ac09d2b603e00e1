// Deterministic PRNG: xoshiro256** seeded via splitmix64.
//
// Every stochastic component in SDT takes an explicit seed so that tests and
// benchmark tables are reproducible bit-for-bit across runs and machines.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace sdt {

namespace detail {
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The seed of stream `index` under base seed `base`: splitmix64 of
/// base ^ ((index + 1) * golden ratio). Stateless; neighbouring indices
/// decorrelate even for base seeds 0 and 1.
constexpr std::uint64_t mixSeed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t state = base ^ ((index + 1) * 0x9E3779B97F4A7C15ULL);
  return splitmix64(state);
}
}  // namespace detail

/// xoshiro256** — fast, high-quality, 2^256-1 period. Satisfies
/// UniformRandomBitGenerator so it composes with <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5D1745D1745D1745ULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = detail::splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    // Lemire's nearly-divisionless method is overkill here; simple rejection.
    const std::uint64_t threshold = max() - max() % bound;
    std::uint64_t x = (*this)();
    while (x >= threshold) x = (*this)();
    return x % bound;
  }

  /// Uniform integer in [lo, hi] inclusive. The width is computed in
  /// uint64_t (where wraparound is defined): `hi - lo + 1` in signed
  /// arithmetic overflows — UB — for spans over 2^63, e.g.
  /// between(INT64_MIN, INT64_MAX). A full-range span wraps to 0 and is
  /// served by a raw draw (every 64-bit pattern is a valid result).
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)());
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + below(span));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Exponentially distributed with the given mean.
  double exponential(double mean) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace sdt
