#include "testbed/sweep.hpp"

#include "common/rng.hpp"

namespace sdt::testbed {

std::uint64_t SweepRunner::pointSeed(std::uint64_t base, std::size_t index) {
  return detail::mixSeed(base, index);
}

}  // namespace sdt::testbed
