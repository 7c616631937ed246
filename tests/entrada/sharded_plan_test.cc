// Sharded-analytics equivalence: AnalysisPlan::Execute(ShardedCapture)
// scans the shard buffers in place and must produce results byte-identical
// to flattening first and scanning the merged stream — for every op type
// and every thread count. This is the contract that lets the figure/table
// drivers skip the merge entirely.
#include "entrada/plan.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "capture/sharded.h"
#include "sim/random.h"

namespace clouddns::entrada {
namespace {

/// Multi-shard capture with realistic shape: each shard is its own
/// time-sorted stream spanning ~3 months (so monthly bucketing has real
/// work) and shard streams fully overlap in time.
capture::ShardedCapture SyntheticSharded(std::size_t shard_count,
                                         std::size_t per_shard) {
  std::vector<capture::CaptureBuffer> shards(shard_count);
  const sim::TimeUs start = sim::TimeFromCivil({2020, 2, 1});
  // Mean step spreads each shard's stream over ~90 days.
  const std::uint64_t step = 2 * 90 * sim::kMicrosPerDay / (per_shard + 1);
  for (std::size_t s = 0; s < shard_count; ++s) {
    sim::Rng rng(1000 + s);
    shards[s].reserve(per_shard);
    sim::TimeUs t = start + s;
    for (std::size_t i = 0; i < per_shard; ++i) {
      t += rng.NextBelow(step);
      capture::CaptureRecord r;
      r.time_us = t;
      r.server_id = static_cast<std::uint32_t>(rng.NextBelow(3));
      if (rng.Bernoulli(0.4)) {
        r.src = net::IpAddress(net::Ipv4Address(
            static_cast<std::uint32_t>(0x0a000000 + rng.NextBelow(3000))));
      } else {
        auto v6 = *net::Ipv6Address::Parse(
            "2001:db8::" + std::to_string(rng.NextBelow(3000)));
        r.src = net::IpAddress(v6);
      }
      r.transport = rng.Bernoulli(0.1) ? dns::Transport::kTcp
                                       : dns::Transport::kUdp;
      r.qtype = rng.Bernoulli(0.5)
                    ? dns::RrType::kA
                    : (rng.Bernoulli(0.5) ? dns::RrType::kAaaa
                                          : dns::RrType::kNs);
      r.rcode = rng.Bernoulli(0.2) ? dns::Rcode::kNxDomain
                                   : dns::Rcode::kNoError;
      r.has_edns = rng.Bernoulli(0.8);
      r.edns_udp_size = r.has_edns ? static_cast<std::uint16_t>(
                                         512u + 16u * rng.NextBelow(100))
                                   : 0;
      r.query_size = static_cast<std::uint16_t>(40 + rng.NextBelow(200));
      shards[s].push_back(std::move(r));
    }
  }
  return capture::ShardedCapture::FromShards(std::move(shards));
}

struct PlanResults {
  std::uint64_t count;
  Aggregation group;
  std::map<std::string, Aggregation> months;
  std::uint64_t distinct;
  double sketch;
  std::uint64_t cdf_count;
  double cdf_median;
  double cdf_p99;
  /// Per tag: the keyed CDF's sample count and median.
  std::map<std::string, std::pair<std::size_t, double>> keyed_cdfs;
};

/// The shards back to back as one single-shard capture: the
/// flatten-then-scan reference.
capture::ShardedCapture Flattened(const capture::ShardedCapture& records) {
  return capture::ShardedCapture(records.FlattenCopy());
}

/// Registers one spec of every op type, executes, and snapshots results.
PlanResults RunAllOps(const capture::ShardedCapture& records,
                      std::size_t threads) {
  // Routes part of SyntheticSharded's v4 and v6 sources; the tag is the
  // origin AS's offset (0 for unrouted).
  net::AsDatabase asdb;
  asdb.AddAs(64500, "V4-NET");
  asdb.AddAs(64501, "V6-NET");
  asdb.Announce(*net::Prefix::Parse("10.0.0.0/22"), 64500);
  asdb.Announce(*net::Prefix::Parse("2001:db8::/116"), 64501);
  AnalysisPlan plan;
  plan.SetAsDatabase(asdb);
  plan.SetSourceTag(
      [](const net::IpAddress&, std::optional<net::Asn> asn) {
        return static_cast<std::uint32_t>(asn ? *asn - 64499 : 0);
      },
      [](std::uint32_t tag) { return "tag-" + std::to_string(tag); });
  auto count = plan.Count(FilterSpec::Valid());
  auto group = plan.GroupBy(FilterSpec::All(), KeySpec::Qtype());
  auto months = plan.GroupByMonth(FilterSpec::Valid(), KeySpec::Tag());
  auto distinct = plan.Distinct(FilterSpec::Udp(), KeySpec::SrcAddress());
  auto sketch = plan.Sketch(FilterSpec::All(), KeySpec::SrcAddress());
  auto cdf = plan.Collect(
      {FilterSpec::Kind::kAll, FilterSpec::kEdns, {}, {}},
      ValueKind::kEdnsUdpSize);
  auto keyed =
      plan.Collect(FilterSpec::Valid(), ValueKind::kQuerySize, KeySpec::Tag());
  plan.Execute(records, threads);
  PlanResults out;
  out.count = plan.CountResult(count);
  out.group = plan.GroupResult(group);
  out.months = plan.MonthResult(months);
  out.distinct = plan.DistinctResult(distinct);
  out.sketch = plan.SketchResult(sketch).Estimate();
  out.cdf_count = plan.CdfResult(cdf).count();
  out.cdf_median = plan.CdfResult(cdf).Quantile(0.5);
  out.cdf_p99 = plan.CdfResult(cdf).Quantile(0.99);
  for (auto& [tag, values] : plan.KeyedCdfResult(keyed)) {
    out.keyed_cdfs[tag] = {values.count(), values.Median()};
  }
  return out;
}

void ExpectSameResults(const PlanResults& got, const PlanResults& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.group.total, want.group.total);
  EXPECT_EQ(got.group.counts, want.group.counts);
  ASSERT_EQ(got.months.size(), want.months.size());
  for (const auto& [month, agg] : want.months) {
    auto it = got.months.find(month);
    ASSERT_NE(it, got.months.end()) << month;
    EXPECT_EQ(it->second.total, agg.total);
    EXPECT_EQ(it->second.counts, agg.counts);
  }
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_DOUBLE_EQ(got.sketch, want.sketch);
  EXPECT_EQ(got.cdf_count, want.cdf_count);
  EXPECT_DOUBLE_EQ(got.cdf_median, want.cdf_median);
  EXPECT_DOUBLE_EQ(got.cdf_p99, want.cdf_p99);
  EXPECT_EQ(got.keyed_cdfs, want.keyed_cdfs);
}

class ShardedPlanTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  capture::ShardedCapture records_ = SyntheticSharded(16, 2'000);
};

INSTANTIATE_TEST_SUITE_P(Threads, ShardedPlanTest,
                         ::testing::Values(1, 2, 4, 8));

TEST_P(ShardedPlanTest, ShardWiseScanMatchesFlattenThenScan) {
  const std::size_t threads = GetParam();
  // Reference: copy the shards into one buffer, scan it flat.
  PlanResults flat = RunAllOps(Flattened(records_), threads);
  // Under test: scan the shard buffers in place, no copy.
  PlanResults sharded = RunAllOps(records_, threads);
  ExpectSameResults(sharded, flat);
}

TEST_P(ShardedPlanTest, ShardedResultsIdenticalToSingleThread) {
  PlanResults serial = RunAllOps(records_, 1);
  PlanResults parallel = RunAllOps(records_, GetParam());
  ExpectSameResults(parallel, serial);
}

TEST(ShardedPlanTest, DegenerateShardingsAgree) {
  // 1, 3, and 16 shards holding the same records must agree:
  // the shard structure is a storage detail, never a statistics input.
  auto sixteen = SyntheticSharded(16, 1'000);
  const capture::CaptureBuffer flat = sixteen.TimeOrderedCopy();
  capture::ShardedCapture one(flat);

  std::vector<capture::CaptureBuffer> three(3);
  for (std::size_t i = 0; i < flat.size(); ++i) {
    three[i % 3].push_back(flat[i]);
  }
  // Per-shard streams must be time-sorted; round-robin of a sorted stream
  // keeps each subsequence sorted.
  auto scattered = capture::ShardedCapture::FromShards(std::move(three));

  PlanResults a = RunAllOps(sixteen, 4);
  PlanResults b = RunAllOps(one, 4);
  PlanResults c = RunAllOps(scattered, 4);
  ExpectSameResults(b, a);
  ExpectSameResults(c, a);
}

TEST(ShardedPlanTest, EmptyAndTinyCapturesSurvive) {
  capture::ShardedCapture empty;
  PlanResults e = RunAllOps(empty, 4);
  EXPECT_EQ(e.count, 0u);
  EXPECT_EQ(e.group.total, 0u);

  auto tiny = SyntheticSharded(16, 3);  // far below the serial cutoff
  PlanResults flat = RunAllOps(Flattened(tiny), 8);
  PlanResults sharded = RunAllOps(tiny, 8);
  ExpectSameResults(sharded, flat);
}

TEST(ShardedPlanTest, ZeroShardCaptureScansAnEmptyBuffer) {
  // A capture with no shard buffers at all must agree with scanning one
  // empty shard, at any thread count.
  const auto none = capture::ShardedCapture::FromShards({});
  ASSERT_EQ(none.shard_count(), 0u);
  const PlanResults want =
      RunAllOps(capture::ShardedCapture(capture::CaptureBuffer{}), 1);
  for (std::size_t threads : {1u, 8u}) {
    const PlanResults got = RunAllOps(none, threads);
    EXPECT_EQ(got.count, 0u);
    EXPECT_EQ(got.distinct, 0u);
    ExpectSameResults(got, want);
  }
}

}  // namespace
}  // namespace clouddns::entrada
