#include "analysis/chaos.h"

namespace clouddns::analysis {
namespace {

double Ratio(std::uint64_t numerator, std::uint64_t denominator) {
  if (denominator == 0) return 0.0;
  return static_cast<double>(numerator) / static_cast<double>(denominator);
}

}  // namespace

RetryAmplification ComputeRetryAmplification(
    const cloud::ScenarioResult& baseline,
    const cloud::ScenarioResult& faulted) {
  RetryAmplification amp;
  amp.baseline_upstream = baseline.robustness.upstream_queries;
  amp.faulted_upstream = faulted.robustness.upstream_queries;
  amp.baseline_captured = baseline.records.size();
  amp.faulted_captured = faulted.records.size();
  amp.upstream_factor = Ratio(amp.faulted_upstream, amp.baseline_upstream);
  amp.captured_factor = Ratio(amp.faulted_captured, amp.baseline_captured);
  amp.faulted_counters = faulted.robustness;
  return amp;
}

}  // namespace clouddns::analysis
