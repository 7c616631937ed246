// Chaos contract of the fault-injected scenario engine: fault-enabled runs
// keep the DESIGN.md §7 determinism guarantee (byte-identical output for
// every thread count), faults actually change the realization, the dataset
// cache key tracks the fault preset, and the .nz-event loss preset
// reproduces the Fig. 3b retry amplification within a tolerance band and
// matches its pinned capture digest and retry totals.
#include <gtest/gtest.h>

#include <string>

#include "../testutil.h"
#include "analysis/chaos.h"
#include "analysis/dataset_cache.h"
#include "capture/columnar.h"
#include "cloud/scenario.h"

namespace clouddns::cloud {
namespace {

ScenarioConfig ChaosConfig(std::size_t threads) {
  ScenarioConfig config;
  config.vantage = Vantage::kNl;
  config.year = 2020;
  config.client_queries = 40'000;
  config.zone_scale = 0.001;
  config.threads = threads;
  config.fault_preset = FaultPreset::kLossyPath;
  return config;
}

TEST(ChaosScenarioTest, FaultedRunByteIdenticalAcrossThreadCounts) {
  auto one = RunScenario(ChaosConfig(1));
  auto four = RunScenario(ChaosConfig(4));
  auto hw = RunScenario(ChaosConfig(0));  // hardware_concurrency

  ASSERT_FALSE(one.records.empty());
  EXPECT_TRUE(one.records == four.records);
  EXPECT_TRUE(one.records == hw.records);
  EXPECT_EQ(one.robustness, four.robustness);
  EXPECT_EQ(one.robustness, hw.robustness);
  EXPECT_EQ(one.client_queries_issued, four.client_queries_issued);
  EXPECT_EQ(one.leaf_queries, four.leaf_queries);
  EXPECT_GT(one.robustness.timeouts, 0u);
  EXPECT_GT(one.robustness.retransmits, 0u);
}

TEST(ChaosScenarioTest, FaultsChangeTheRealization) {
  ScenarioConfig faulted = ChaosConfig(0);
  ScenarioConfig clean = ChaosConfig(0);
  clean.fault_preset = FaultPreset::kNone;

  auto faulted_result = RunScenario(faulted);
  auto clean_result = RunScenario(clean);
  EXPECT_EQ(clean_result.robustness.timeouts, 0u);
  EXPECT_EQ(clean_result.robustness.retransmits, 0u);
  EXPECT_EQ(clean_result.robustness.failovers, 0u);
  EXPECT_GT(faulted_result.robustness.timeouts, 0u);
  // Lossy paths force retries, so the resolvers send more upstream
  // queries for the same client demand.
  EXPECT_GT(faulted_result.robustness.upstream_queries,
            clean_result.robustness.upstream_queries);
  EXPECT_FALSE(faulted_result.records == clean_result.records);
}

TEST(ChaosScenarioTest, CacheKeyTracksFaultConfiguration) {
  ScenarioConfig clean = ChaosConfig(1);
  clean.fault_preset = FaultPreset::kNone;
  ScenarioConfig preset = ChaosConfig(1);
  ScenarioConfig event = ChaosConfig(1);
  event.fault_preset = FaultPreset::kNzEventLoss;
  EXPECT_NE(analysis::CacheKey(clean), analysis::CacheKey(preset));
  EXPECT_NE(analysis::CacheKey(preset), analysis::CacheKey(event));

  // Thread count must stay out of the key, faults or not.
  ScenarioConfig preset8 = ChaosConfig(8);
  EXPECT_EQ(analysis::CacheKey(preset), analysis::CacheKey(preset8));
}

TEST(ChaosScenarioTest, NzEventLossAmplifiesUpstreamQueries) {
  // A one-week slice of the Feb-2020 event with Google's fleet only: the
  // broken cyclic pair plus the event loss regime must at least double
  // the upstream query load relative to a fault-free normal week (the
  // Fig. 3b mechanism), but stay bounded — per-resolution query budgets
  // cap the amplification well below the naive 1/p blowup.
  ScenarioConfig config;
  config.vantage = Vantage::kNz;
  config.year = 2020;
  config.client_queries = 30'000;
  config.zone_scale = 0.001;
  config.window_start = sim::TimeFromCivil({2020, 2, 3});
  config.window_end = sim::TimeFromCivil({2020, 2, 10});
  config.google_only = true;
  config.warmup_fraction = 0.1;

  // Baseline: the same client demand in a normal week — no broken domains,
  // no loss. Event run: the cyclic pair is injected into the query stream
  // and the event-window loss regime is active.
  ScenarioConfig baseline_config = config;
  baseline_config.inject_cyclic_event = false;
  ScenarioConfig faulted_config = config;
  faulted_config.inject_cyclic_event = true;
  faulted_config.fault_preset = FaultPreset::kNzEventLoss;
  auto baseline = RunScenario(baseline_config);
  auto faulted = RunScenario(faulted_config);

  // The faulted run is pinned to fixed references: the capture's columnar
  // encoding (every record, in time order) and the fleet's retry totals.
  // Together with the kLossyPath report digest in dnssec_parallel_test,
  // this holds both presets' fault-decision streams in place.
  const auto wire =
      capture::EncodeColumnar(faulted.records.TimeOrderedCopy());
  EXPECT_EQ(testutil::Sha256Hex(std::string(wire.begin(), wire.end())),
            "c875909d7df750e43dbe1bff0467d1e2b3e9dc5887832cd7f768d19b8a777c59");
  RobustnessCounters pinned;
  pinned.upstream_queries = 305'419;
  pinned.retransmits = 148'362;
  pinned.timeouts = 185'195;
  pinned.failovers = 32'471;
  EXPECT_EQ(faulted.robustness, pinned);

  auto amp = analysis::ComputeRetryAmplification(baseline, faulted);
  ASSERT_GT(amp.baseline_upstream, 0u);
  EXPECT_GE(amp.upstream_factor, 2.0);
  EXPECT_LE(amp.upstream_factor, 6.0);
  EXPECT_GT(amp.faulted_counters.retransmits, 0u);
  EXPECT_GT(amp.faulted_counters.timeouts, 0u);
}

}  // namespace
}  // namespace clouddns::cloud
