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

std::vector<ChaosSeriesPoint> DailyCaptureSeries(
    const cloud::ScenarioResult& baseline,
    const cloud::ScenarioResult& faulted) {
  std::vector<ChaosSeriesPoint> series;
  const sim::TimeUs start = baseline.window_start;
  const sim::TimeUs end = baseline.window_end;
  if (end <= start) return series;
  const std::size_t days = static_cast<std::size_t>(
      (end - start + sim::kMicrosPerDay - 1) / sim::kMicrosPerDay);
  series.resize(days);
  for (std::size_t d = 0; d < days; ++d) {
    series[d].day_start = start + d * sim::kMicrosPerDay;
  }
  // Scan shard-wise: day bucketing only adds counts, so visiting records
  // in per-shard rather than time order changes nothing — and skips the
  // flat copy entirely.
  auto accumulate = [&](const capture::ShardedCapture& records,
                        std::uint64_t ChaosSeriesPoint::* field) {
    for (std::size_t s = 0; s < records.shard_count(); ++s) {
      for (const auto& record : records.shard(s)) {
        if (record.time_us < start || record.time_us >= end) continue;
        std::size_t d = static_cast<std::size_t>((record.time_us - start) /
                                                 sim::kMicrosPerDay);
        series[d].*field += 1;
      }
    }
  };
  accumulate(baseline.records, &ChaosSeriesPoint::baseline_captured);
  accumulate(faulted.records, &ChaosSeriesPoint::faulted_captured);
  return series;
}

}  // namespace clouddns::analysis
