#include "entrada/hll.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/hash.h"

namespace clouddns::entrada {

void Hll::AddHash(std::uint64_t hash) {
  const std::size_t index = hash >> (64 - kPrecision);
  const std::uint64_t rest = hash << kPrecision;
  // Rank = position of the leftmost 1 in the remaining bits (1-based);
  // all-zero rest maps to the maximum rank.
  const int rank =
      rest == 0 ? (64 - kPrecision + 1) : std::countl_zero(rest) + 1;
  registers_[index] =
      std::max(registers_[index], static_cast<std::uint8_t>(rank));
}

// Keys and addresses are FNV-1a hashed from the short basis (an address
// over its family tag and bytes, as net::IpAddressHash does), then Mix64
// spreads the result so low-entropy inputs still fill every register.
void Hll::Add(std::string_view key) {
  AddHash(base::Mix64(base::Fnv1a(key, base::kShortFnvBasis)));
}

void Hll::Add(const net::IpAddress& address) {
  AddHash(base::Mix64(net::IpAddressHash{}(address)));
}

double Hll::Estimate() const {
  constexpr double m = static_cast<double>(kRegisters);
  const double alpha = 0.7213 / (1.0 + 1.079 / m);

  double sum = 0;
  int zeros = 0;
  for (std::uint8_t reg : registers_) {
    sum += std::ldexp(1.0, -reg);
    zeros += reg == 0;
  }
  double estimate = alpha * m * m / sum;

  // Small-range correction: linear counting while any register is empty
  // and the raw estimate is small.
  if (estimate <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return estimate;
}

void Hll::Merge(const Hll& other) {
  for (std::size_t i = 0; i < kRegisters; ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

}  // namespace clouddns::entrada
