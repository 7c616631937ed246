// Retry-amplification analysis for fault-injected scenarios.
//
// The Fig. 3b story is mechanistic: when resolution breaks (the .nz
// cyclic-dependency event, or injected packet loss standing in for it),
// resolvers do not send *less* traffic — they retry, fail over and walk
// the NS set, multiplying the upstream query load the authoritatives see.
// This module quantifies that multiplication by comparing a fault-free
// baseline run against a fault-injected run of the same scenario.
#pragma once

#include <cstdint>

#include "cloud/scenario.h"

namespace clouddns::analysis {

/// Amplification of upstream work under faults, relative to a fault-free
/// baseline of the identical scenario configuration.
struct RetryAmplification {
  std::uint64_t baseline_upstream = 0;  ///< Resolver->auth queries, no faults.
  std::uint64_t faulted_upstream = 0;   ///< Same with the fault schedule on.
  std::uint64_t baseline_captured = 0;  ///< Vantage-captured records.
  std::uint64_t faulted_captured = 0;
  /// faulted/baseline ratios (0 when the baseline denominator is zero).
  double upstream_factor = 0.0;
  double captured_factor = 0.0;
  /// The faulted run's robustness totals, for the retry breakdown.
  cloud::RobustnessCounters faulted_counters;
};

[[nodiscard]] RetryAmplification ComputeRetryAmplification(
    const cloud::ScenarioResult& baseline,
    const cloud::ScenarioResult& faulted);

}  // namespace clouddns::analysis
