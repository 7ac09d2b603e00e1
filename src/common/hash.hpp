// FNV-1a, the repository's one non-cryptographic hash: journal frame
// checksums and the determinism fingerprints that tests and stats digests
// compare between runs.
#pragma once

#include <cstdint>
#include <string_view>

namespace sdt::hash {

/// 32-bit FNV-1a over raw bytes.
[[nodiscard]] constexpr std::uint32_t fnv1a32(std::string_view bytes) {
  std::uint32_t h = 2166136261u;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

/// 64-bit FNV-1a accumulator. mix() folds a word in little-endian byte
/// order, bytes() folds raw bytes; both continue the same running hash.
class Fnv64 {
 public:
  constexpr Fnv64& mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) step(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  constexpr Fnv64& bytes(std::string_view s) {
    for (const char c : s) step(static_cast<unsigned char>(c));
    return *this;
  }
  [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

 private:
  constexpr void step(unsigned char byte) {
    h_ ^= byte;
    h_ *= 0x100000001B3ULL;
  }

  std::uint64_t h_ = 0xCBF29CE484222325ULL;  ///< standard FNV-64 offset basis
};

}  // namespace sdt::hash
