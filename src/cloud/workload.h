// Client-side query workload: what end users/applications ask the
// resolvers for. Popularity is Zipf over the registered domains; a junk
// share targets unregistered names (typos, misconfigurations); root-vantage
// workloads add Chromium-style random-TLD probes (§3, [19][42]).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "sim/random.h"

namespace clouddns::cloud {

/// One registrable suffix and how many domains exist under it. For .nl
/// this is just {"nl", N}; .nz has the second level ("nz") plus the
/// second-level zones ("co.nz", "net.nz", ...) with third-level domains.
struct SuffixPopulation {
  dns::Name suffix;
  std::size_t domain_count = 0;
  double weight = 1.0;  ///< Client-interest share of this suffix.
  std::string stem = "dom";  ///< Registered domains are "<stem><i>.<suffix>".
};

struct WorkloadSpec {
  std::vector<SuffixPopulation> suffixes;
  /// Share of queries for names that do not exist under a real suffix.
  double junk_fraction = 0.10;
  /// Share of Chromium-style random single-label (fake TLD) probes.
  double chromium_fraction = 0.0;
};

struct ClientQuery {
  dns::Name qname;
  dns::RrType qtype = dns::RrType::kA;
};

/// The immutable part of a workload: the spec and the alias tables built
/// from it. Building the Zipf tables is the costly step, so one model is
/// shared, read-only, by every generator that draws from the same spec.
struct WorkloadModel {
  /// Throws std::invalid_argument when the spec has no suffixes.
  explicit WorkloadModel(WorkloadSpec spec);

  WorkloadSpec spec;
  sim::DiscreteSampler suffix_sampler;
  std::vector<sim::ZipfSampler> domain_samplers;  // one per suffix
  sim::DiscreteSampler qtype_sampler;  // indexes workload.cc's kQtypeMix
};

/// One client query stream: a seeded RNG and the injection state over a
/// shared WorkloadModel.
class WorkloadGenerator {
 public:
  WorkloadGenerator(std::shared_ptr<const WorkloadModel> model,
                    std::uint64_t seed);
  /// Builds a private model from `spec`.
  WorkloadGenerator(WorkloadSpec spec, std::uint64_t seed);

  [[nodiscard]] ClientQuery Next();

  /// Until ClearInjection(), each query draws from `targets` with the
  /// given probability (used to inject the Feb-2020 cyclic-dependency
  /// event of Fig. 3b).
  void InjectTargets(std::vector<dns::Name> targets, double probability);
  void ClearInjection();

 private:
  [[nodiscard]] dns::Name RandomLabelName(std::size_t min_len,
                                          std::size_t max_len,
                                          const dns::Name& suffix);

  std::shared_ptr<const WorkloadModel> model_;
  sim::Rng rng_;
  std::vector<dns::Name> injected_;
  double injected_probability_ = 0.0;
};

}  // namespace clouddns::cloud
