// Deterministic random generation for the traffic simulator.
//
// Everything in the pipeline draws from Rng (xoshiro256**), seeded per
// scenario, so each table/figure is bit-reproducible run to run. The Zipf
// sampler models domain-popularity skew in client workloads.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "base/hash.h"

namespace clouddns::sim {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // SplitMix64 seeding, as the authors recommend.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += base::kGoldenGamma;
      word = base::Mix64(x);
    }
  }

  std::uint64_t Next() {
    auto rotl = [](std::uint64_t v, int k) {
      return (v << k) | (v >> (64 - k));
    };
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

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound) {
    assert(bound > 0);
    // Rejection sampling to kill modulo bias.
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      std::uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  std::uint64_t state_[4];
};

/// Derives an independent substream seed from a base seed and a stream id
/// (SplitMix64 finalizer over the mixed pair). The parallel scenario engine
/// seeds every shard's generators with SubstreamSeed(base_seed, shard_id),
/// so shard streams are decorrelated yet fully determined by the base seed
/// — the scheduling of shards onto threads never touches the randomness.
[[nodiscard]] inline std::uint64_t SubstreamSeed(std::uint64_t base_seed,
                                                std::uint64_t stream) {
  return base::Mix64(base_seed + base::kGoldenGamma * (stream + 1));
}

/// Samples indices 0..n-1 with probability proportional to the given
/// weights, in O(1) per draw (alias method).
class DiscreteSampler {
 public:
  explicit DiscreteSampler(const std::vector<double>& weights);

  [[nodiscard]] std::size_t Sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

/// Zipf(s) over ranks 1..n, built on the alias table (exact, O(1) draws).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Returns a rank index in [0, n).
  [[nodiscard]] std::size_t Sample(Rng& rng) const { return table_.Sample(rng); }
  [[nodiscard]] std::size_t size() const { return table_.size(); }

 private:
  DiscreteSampler table_;
};

}  // namespace clouddns::sim
