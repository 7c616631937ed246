// The tree's three hash primitives, each written once: FNV-1a, the
// SplitMix64 finalizer and a boost-style hash-combine. Every output built
// on them is pinned bit for bit, so none of these may change.
//
// FNV-1a starts from one of two offset bases, and which one is part of
// the pinned output:
// - kFnvOffsetBasis, FNV's published 64-bit basis, seeds only the
//   storage-fault offsets base::io derives from a file path.
// - kShortFnvBasis seeds dns::Name's hashes and net::IpAddressHash, and
//   through them the resolver cache and zone owner slots, the leaf's
//   synthetic addresses and answers, the mock DNSSEC key tags, keys and
//   signatures, the network fault injector's per-packet decisions and
//   entrada::Hll, whose sketches are Table 3's HLL resolver and AS
//   columns.
#pragma once

#include <cstdint>
#include <string_view>

namespace clouddns::base {

inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV's published 64-bit offset basis, 14695981039346656037.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// Not FNV's published basis: it is kFnvOffsetBasis's decimal digits with
/// the last one dropped. Name and address hashes have always started here,
/// and the leaf wire pins and Table 3's HLL columns depend on it.
inline constexpr std::uint64_t kShortFnvBasis = 1469598103934665603ull;

/// SplitMix64's increment (2^64 over the golden ratio), also the constant
/// HashCombine adds.
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// One FNV-1a round: folds `byte` into `hash`.
[[nodiscard]] constexpr std::uint64_t Fnv1aStep(std::uint64_t hash,
                                                std::uint8_t byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// FNV-1a over `bytes`, starting from `seed` (an offset basis, or an
/// earlier hash to continue).
[[nodiscard]] constexpr std::uint64_t Fnv1a(std::string_view bytes,
                                            std::uint64_t seed) {
  for (char c : bytes) seed = Fnv1aStep(seed, static_cast<std::uint8_t>(c));
  return seed;
}

/// The SplitMix64 finalizer: a bijection on 64-bit words in which every
/// input bit affects every output bit. SplitMix64's n-th output from state
/// s is Mix64(s + n * kGoldenGamma).
[[nodiscard]] constexpr std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// boost::hash_combine's step on 64-bit words: folds `value` into `hash`.
[[nodiscard]] constexpr std::uint64_t HashCombine(std::uint64_t hash,
                                                  std::uint64_t value) {
  return hash ^ (value + kGoldenGamma + (hash << 6) + (hash >> 2));
}

}  // namespace clouddns::base
