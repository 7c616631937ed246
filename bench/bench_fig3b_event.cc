// Figure 3b event mechanics: the Feb-2020 .nz cyclic-dependency weeks as a
// *robustness* experiment. The qualitative spike (bench_figure3_qmin_rollout)
// comes from the q-min fallback alone; here we model the full event against
// a normal-month baseline — the broken cyclic pair enters the query stream
// AND the event weeks run under a response-heavy loss regime
// (FaultPreset::kNzEventLoss) — and measure how much the resolver fleet's
// timeout/retry/failover engine multiplies the upstream query load, which is
// the mechanism behind the paper's observation that a *broken* pair of
// domains increased the TLD's total traffic.
//
// Prints the baseline/faulted query volumes, the amplification factors and
// the retry breakdown.
#include <cstdio>

#include "analysis/chaos.h"
#include "common.h"

using namespace clouddns;

namespace {

cloud::ScenarioConfig EventConfig() {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNz;
  config.year = 2020;
  config.client_queries = 150'000;
  // The event weeks only: Feb 3 - Feb 27 2020 (plus the warmup day).
  config.window_start = sim::TimeFromCivil({2020, 2, 3});
  config.window_end = sim::TimeFromCivil({2020, 2, 27});
  config.google_only = true;
  // A small warmup keeps one-time TLD discovery from diluting the
  // event-window contrast.
  config.warmup_fraction = 0.1;
  return config;
}

}  // namespace

int main() {
  analysis::PrintBanner("Figure 3b (event mechanics)",
                        "Retry amplification during the .nz cyclic event");

  // Baseline: the same client demand over the same weeks, but in a normal
  // month — no broken domains, no loss. Event run: the cyclic pair enters
  // the query stream and the event-window loss regime is active.
  cloud::ScenarioConfig baseline_config = EventConfig();
  baseline_config.inject_cyclic_event = false;
  cloud::ScenarioConfig faulted_config = EventConfig();
  faulted_config.inject_cyclic_event = true;
  faulted_config.fault_preset = cloud::FaultPreset::kNzEventLoss;

  const cloud::ScenarioResult baseline = analysis::LoadOrRun(baseline_config);
  const cloud::ScenarioResult faulted = analysis::LoadOrRun(faulted_config);
  const analysis::RetryAmplification amp =
      analysis::ComputeRetryAmplification(baseline, faulted);

  analysis::TextTable table({"metric", "baseline", "faulted", "factor"});
  table.AddRow({"upstream queries", analysis::Count(amp.baseline_upstream),
                analysis::Count(amp.faulted_upstream),
                analysis::Fixed(amp.upstream_factor, 2)});
  table.AddRow({"captured at .nz", analysis::Count(amp.baseline_captured),
                analysis::Count(amp.faulted_captured),
                analysis::Fixed(amp.captured_factor, 2)});
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nFaulted-run retry breakdown: %llu retransmits, %llu timeouts, "
      "%llu failovers\n",
      static_cast<unsigned long long>(amp.faulted_counters.retransmits),
      static_cast<unsigned long long>(amp.faulted_counters.timeouts),
      static_cast<unsigned long long>(amp.faulted_counters.failovers));
  std::printf(
      "\nExpected shape: the faulted run multiplies the upstream query "
      "load\n(>= 2x) without any increase in client demand — resolution "
      "failure\ncreates traffic, which is the Fig. 3b mechanism.\n");
  return 0;
}
