// Determinism contract of the parallel scenario engine: the merged capture
// stream is BYTE-IDENTICAL for every thread count (threads only schedule
// shards onto workers; the shard count determines the realization), and the
// headline aggregates (Table 3 / Fig. 1) follow suit.
#include <gtest/gtest.h>

#include "analysis/dataset_cache.h"
#include "analysis/experiments.h"
#include "cloud/scenario.h"
#include "entrada/plan.h"

namespace clouddns::cloud {
namespace {

ScenarioConfig SmallConfig(std::size_t threads) {
  ScenarioConfig config;
  config.vantage = Vantage::kNl;
  config.year = 2020;
  config.client_queries = 40'000;
  config.zone_scale = 0.001;
  config.threads = threads;
  return config;
}

TEST(ParallelScenarioTest, ByteIdenticalAcrossThreadCounts) {
  auto one = RunScenario(SmallConfig(1));
  auto two = RunScenario(SmallConfig(2));
  auto eight = RunScenario(SmallConfig(8));

  ASSERT_FALSE(one.records.empty());
  ASSERT_EQ(one.records.size(), two.records.size());
  ASSERT_EQ(one.records.size(), eight.records.size());
  // CaptureRecord has defaulted operator==; compare every field of every
  // record across the three runs.
  EXPECT_TRUE(one.records == two.records);
  EXPECT_TRUE(one.records == eight.records);

  EXPECT_EQ(one.client_queries_issued, two.client_queries_issued);
  EXPECT_EQ(one.client_queries_issued, eight.client_queries_issued);
  EXPECT_EQ(one.leaf_queries, two.leaf_queries);
  EXPECT_EQ(one.leaf_queries, eight.leaf_queries);
  EXPECT_EQ(one.client_queries_per_provider, two.client_queries_per_provider);
  EXPECT_EQ(one.client_queries_per_provider,
            eight.client_queries_per_provider);
}

TEST(ParallelScenarioTest, AggregatesIdenticalAcrossThreadCounts) {
  auto one = RunScenario(SmallConfig(1));
  auto eight = RunScenario(SmallConfig(8));

  // Table 3 numbers.
  auto stats_one = analysis::ComputeDatasetStats(one);
  auto stats_eight = analysis::ComputeDatasetStats(eight);
  EXPECT_EQ(stats_one.queries_total, stats_eight.queries_total);
  EXPECT_EQ(stats_one.queries_valid, stats_eight.queries_valid);
  EXPECT_EQ(stats_one.resolvers_exact, stats_eight.resolvers_exact);
  EXPECT_EQ(stats_one.ases_exact, stats_eight.ases_exact);
  EXPECT_DOUBLE_EQ(stats_one.resolvers_hll, stats_eight.resolvers_hll);
  EXPECT_DOUBLE_EQ(stats_one.ases_hll, stats_eight.ases_hll);

  // Fig. 1 numbers.
  auto shares_one = analysis::ComputeCloudShares(one);
  auto shares_eight = analysis::ComputeCloudShares(eight);
  ASSERT_EQ(shares_one.size(), shares_eight.size());
  for (std::size_t i = 0; i < shares_one.size(); ++i) {
    EXPECT_EQ(shares_one[i].queries, shares_eight[i].queries);
    EXPECT_DOUBLE_EQ(shares_one[i].share, shares_eight[i].share);
  }
}

TEST(ParallelScenarioTest, ShardCountChangesRealizationButStaysValid) {
  // Unlike threads, the shard count IS part of the statistical
  // configuration: per-shard workload substreams produce a different
  // (equally valid) traffic realization.
  auto base = RunScenario(SmallConfig(1));
  ScenarioConfig coarse = SmallConfig(1);
  coarse.shards = 4;
  auto other = RunScenario(coarse);
  EXPECT_NE(base.records.size(), other.records.size());
  EXPECT_EQ(base.client_queries_issued, other.client_queries_issued);
}

TEST(ParallelScenarioTest, CacheKeyTracksShardsButNeverThreads) {
  ScenarioConfig a = SmallConfig(1);
  ScenarioConfig b = SmallConfig(8);
  EXPECT_EQ(analysis::CacheKey(a), analysis::CacheKey(b));

  ScenarioConfig c = SmallConfig(1);
  c.shards = 4;
  EXPECT_NE(analysis::CacheKey(a), analysis::CacheKey(c));
}

// Snapshot of every plan-op family over a scenario capture — the payload
// compared between the shard-wise scan and the flatten-then-scan baseline.
struct PlanSnapshot {
  std::uint64_t valid;
  entrada::Aggregation by_qtype;
  std::uint64_t resolvers;
  double resolvers_hll;
  double query_size_median;

  friend bool operator==(const PlanSnapshot& a, const PlanSnapshot& b) {
    return a.valid == b.valid && a.by_qtype.total == b.by_qtype.total &&
           a.by_qtype.counts == b.by_qtype.counts &&
           a.resolvers == b.resolvers && a.resolvers_hll == b.resolvers_hll &&
           a.query_size_median == b.query_size_median;
  }
};

PlanSnapshot SnapshotPlan(const capture::ShardedCapture& records,
                          std::size_t threads) {
  entrada::AnalysisPlan plan;
  auto valid = plan.Count(entrada::FilterSpec::Valid());
  auto qtype = plan.GroupBy(entrada::FilterSpec::All(),
                            entrada::KeySpec::Qtype());
  auto resolvers = plan.Distinct(entrada::FilterSpec::All(),
                                 entrada::KeySpec::SrcAddress());
  auto hll = plan.Sketch(entrada::FilterSpec::All(),
                         entrada::KeySpec::SrcAddress());
  auto sizes = plan.Collect(entrada::FilterSpec::All(),
                            entrada::ValueKind::kQuerySize);
  plan.Execute(records, threads);
  return {plan.CountResult(valid), plan.GroupResult(qtype),
          plan.DistinctResult(resolvers), plan.SketchResult(hll).Estimate(),
          plan.CdfResult(sizes).Quantile(0.5)};
}

TEST(ParallelScenarioTest, ShardedAnalyticsMatchFlattenThenScan) {
  // The tentpole contract: scanning the scenario's shard buffers in place
  // must reproduce the flatten-then-scan results exactly, at every thread
  // count.
  auto result = RunScenario(SmallConfig(2));
  ASSERT_GT(result.records.shard_count(), 1u);
  const PlanSnapshot baseline = SnapshotPlan(
      capture::ShardedCapture(result.records.FlattenCopy()), 1);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(SnapshotPlan(result.records, threads) == baseline)
        << "sharded scan diverges at " << threads << " threads";
  }
}

TEST(ParallelScenarioTest, ShardedAnalyticsMatchUnderFaults) {
  // Fault injection skews per-shard record counts (drops, retries) — the
  // shard-wise scan must stay equivalent on those lopsided shards too.
  ScenarioConfig config = SmallConfig(2);
  config.fault_preset = FaultPreset::kLossyPath;
  auto result = RunScenario(config);
  ASSERT_FALSE(result.records.empty());
  const PlanSnapshot baseline = SnapshotPlan(
      capture::ShardedCapture(result.records.FlattenCopy()), 1);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_TRUE(SnapshotPlan(result.records, threads) == baseline)
        << "sharded scan diverges at " << threads << " threads";
  }
}

TEST(ParallelScenarioTest, DryRebuildStillWorksSharded) {
  // A zero-query scenario still builds the full context (AS database,
  // PTR records) — it must survive the sharded engine.
  ScenarioConfig dry = SmallConfig(4);
  dry.client_queries = 0;
  auto result = RunScenario(dry);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.client_queries_issued, 0u);
  EXPECT_FALSE(result.ptr_records.empty());
}

}  // namespace
}  // namespace clouddns::cloud
