// Scenario result caching for the bench harness: simulating a capture week
// takes seconds, and most benches share datasets. A dataset persists as
// three checksummed artifacts — the columnar capture, the context sidecar
// and the shard index (DESIGN.md §14) — and is served warm only when all
// three verify; otherwise it is rebuilt from simulation.
#pragma once

#include <string>

#include "cloud/scenario.h"

namespace clouddns::analysis {

/// Directory used by default ("./clouddns_cache"); override with the
/// CLOUDDNS_CACHE_DIR environment variable.
[[nodiscard]] std::string DefaultCacheDir();

/// Effective per-dataset client-query budget: the config's value unless
/// the CLOUDDNS_QUERIES environment variable holds a positive integer,
/// which overrides it.
[[nodiscard]] std::uint64_t EffectiveQueryBudget(std::uint64_t configured);

/// Deterministic cache key for a scenario configuration.
[[nodiscard]] std::string CacheKey(const cloud::ScenarioConfig& config);

/// Runs the scenario, reusing the cached dataset when all of its
/// artifacts exist and verify for this exact configuration. Corrupt
/// artifacts are quarantined and every artifact is rewritten from one cold
/// simulation. Pass an empty `cache_dir` to disable caching entirely.
[[nodiscard]] cloud::ScenarioResult LoadOrRun(cloud::ScenarioConfig config,
                                              const std::string& cache_dir =
                                                  DefaultCacheDir());

}  // namespace clouddns::analysis
