// AnalysisPlan, the only capture-aggregation API, checked two ways:
//  - literal expectations on a 4-record fixture (AnalyticsTest);
//  - equivalence on a 20'000-record synthetic buffer against an oracle of
//    plain loops (std::count_if, std::map keyed by ToString) that shares
//    no code with the plan, single-threaded and chunked across workers.
// HLL sketches are compared as estimates against the exact count.
#include "entrada/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "capture/sharded.h"
#include "sim/random.h"

namespace clouddns::entrada {
namespace {

using Record = capture::CaptureRecord;

/// A flat buffer as the single-shard capture Execute scans.
capture::ShardedCapture Sharded(capture::CaptureBuffer records) {
  return capture::ShardedCapture(std::move(records));
}

// --- The 4-record fixture --------------------------------------------------

capture::CaptureBuffer MakeRecords() {
  capture::CaptureBuffer records;
  auto add = [&records](const char* src, const char* qname, dns::RrType qtype,
                        dns::Rcode rcode, dns::Transport transport,
                        sim::TimeUs time) {
    Record r;
    r.src = *net::IpAddress::Parse(src);
    r.qname = *dns::Name::Parse(qname);
    r.qtype = qtype;
    r.rcode = rcode;
    r.transport = transport;
    r.time_us = time;
    r.server_id = 0;
    records.push_back(std::move(r));
  };
  sim::TimeUs jan = sim::TimeFromCivil({2020, 1, 15});
  sim::TimeUs feb = sim::TimeFromCivil({2020, 2, 15});
  add("8.8.8.8", "a.nl", dns::RrType::kA, dns::Rcode::kNoError,
      dns::Transport::kUdp, jan);
  add("8.8.8.8", "b.nl", dns::RrType::kNs, dns::Rcode::kNoError,
      dns::Transport::kUdp, jan);
  add("8.8.4.4", "c.nl", dns::RrType::kA, dns::Rcode::kNxDomain,
      dns::Transport::kUdp, feb);
  add("2001:db8::1", "d.nl", dns::RrType::kAaaa, dns::Rcode::kNoError,
      dns::Transport::kTcp, feb);
  return records;
}

TEST(AnalyticsTest, CountByQtype) {
  AnalysisPlan plan;
  auto qtypes = plan.GroupBy(FilterSpec::All(), KeySpec::Qtype());
  plan.Execute(Sharded(MakeRecords()));
  const Aggregation& agg = plan.GroupResult(qtypes);
  EXPECT_EQ(agg.total, 4u);
  EXPECT_EQ(agg.Of("A"), 2u);
  EXPECT_EQ(agg.Of("NS"), 1u);
  EXPECT_EQ(agg.Of("AAAA"), 1u);
  EXPECT_EQ(agg.Of("MX"), 0u);
  EXPECT_DOUBLE_EQ(agg.Share("A"), 0.5);
}

TEST(AnalyticsTest, CountByWithFilter) {
  AnalysisPlan plan;
  auto qtypes = plan.GroupBy(FilterSpec::Valid(), KeySpec::Qtype());
  plan.Execute(Sharded(MakeRecords()));
  const Aggregation& agg = plan.GroupResult(qtypes);
  EXPECT_EQ(agg.total, 3u);
  EXPECT_EQ(agg.Of("A"), 1u);  // the NXDOMAIN A query is filtered out
}

TEST(AnalyticsTest, CountIfJunk) {
  AnalysisPlan plan;
  auto junk = plan.Count(FilterSpec::Junk());
  auto valid = plan.Count(FilterSpec::Valid());
  auto all = plan.Count(FilterSpec::All());
  plan.Execute(Sharded(MakeRecords()));
  EXPECT_EQ(plan.CountResult(junk), 1u);
  EXPECT_EQ(plan.CountResult(valid), 3u);
  EXPECT_EQ(plan.CountResult(all), 4u);
}

TEST(AnalyticsTest, DistinctExactAndSketchAgree) {
  AnalysisPlan plan;
  auto exact = plan.Distinct(FilterSpec::All(), KeySpec::SrcAddress());
  auto sketch = plan.Sketch(FilterSpec::All(), KeySpec::SrcAddress());
  plan.Execute(Sharded(MakeRecords()));
  EXPECT_EQ(plan.DistinctResult(exact), 3u);
  EXPECT_NEAR(plan.SketchResult(sketch).Estimate(), 3.0, 0.5);
}

TEST(AnalyticsTest, KeyIpFamily) {
  AnalysisPlan plan;
  auto families = plan.GroupBy(FilterSpec::All(), KeySpec::Family());
  plan.Execute(Sharded(MakeRecords()));
  const Aggregation& agg = plan.GroupResult(families);
  EXPECT_EQ(agg.Of("IPv4"), 3u);
  EXPECT_EQ(agg.Of("IPv6"), 1u);
}

TEST(AnalyticsTest, KeySrcAsUsesLongestPrefix) {
  net::AsDatabase asdb;
  asdb.AddAs(15169, "GOOGLE");
  asdb.AddAs(64512, "COVERING");
  asdb.Announce(*net::Prefix::Parse("8.8.0.0/16"), 64512);
  asdb.Announce(*net::Prefix::Parse("8.8.8.0/24"), 15169);
  AnalysisPlan plan;
  plan.SetAsDatabase(asdb);
  auto ases = plan.GroupBy(FilterSpec::All(), KeySpec::SrcAs());
  plan.Execute(Sharded(MakeRecords()));
  const Aggregation& agg = plan.GroupResult(ases);
  EXPECT_EQ(agg.Of("AS15169"), 2u);  // 8.8.8.8: the /24 beats the /16
  EXPECT_EQ(agg.Of("AS64512"), 1u);  // 8.8.4.4: only the /16 covers it
  EXPECT_EQ(agg.Of("AS?"), 1u);      // the unrouted v6 source
  EXPECT_EQ(agg.counts.size(), 3u);
}

TEST(AnalyticsTest, CollectCdfSkipsNullopt) {
  AnalysisPlan plan;
  auto cdf = plan.Collect(FilterSpec::All(),
                          [](const Record& r) -> std::optional<double> {
                            if (r.transport != dns::Transport::kUdp) {
                              return std::nullopt;
                            }
                            return 100.0;
                          });
  plan.Execute(Sharded(MakeRecords()));
  EXPECT_EQ(plan.CdfResult(cdf).count(), 3u);
}

TEST(AnalyticsTest, CountByMonthBuckets) {
  AnalysisPlan plan;
  auto months = plan.GroupByMonth(FilterSpec::All(), KeySpec::Qtype());
  plan.Execute(Sharded(MakeRecords()));
  const auto& result = plan.MonthResult(months);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result.at("2020-01").total, 2u);
  EXPECT_EQ(result.at("2020-02").total, 2u);
  EXPECT_EQ(result.at("2020-02").Of("AAAA"), 1u);
}

TEST(AnalyticsTest, EmptyBufferYieldsEmptyAggregates) {
  AnalysisPlan plan;
  auto qtypes = plan.GroupBy(FilterSpec::All(), KeySpec::Qtype());
  auto distinct = plan.Distinct(FilterSpec::All(), KeySpec::SrcAddress());
  auto months = plan.GroupByMonth(FilterSpec::All(), KeySpec::Qtype());
  plan.Execute(Sharded(capture::CaptureBuffer{}));
  EXPECT_EQ(plan.GroupResult(qtypes).total, 0u);
  EXPECT_DOUBLE_EQ(plan.GroupResult(qtypes).Share("A"), 0.0);
  EXPECT_EQ(plan.DistinctResult(distinct), 0u);
  EXPECT_TRUE(plan.MonthResult(months).empty());
}

TEST(PlanSpecTest, GroupBySourceAddressIsRejected) {
  AnalysisPlan plan;
  EXPECT_THROW((void)plan.GroupBy(FilterSpec::All(), KeySpec::SrcAddress()),
               std::invalid_argument);
  EXPECT_THROW(
      (void)plan.GroupByMonth(FilterSpec::All(), KeySpec::SrcAddress()),
      std::invalid_argument);
}

// --- The oracle --------------------------------------------------------------
// Plain loops that share no code with the plan: no spec dispatch, no key
// codes, no per-worker partials. Keys are the rendered report strings.

using Pred = std::function<bool(const Record&)>;
using KeyOf = std::function<std::string(const Record&)>;

bool Any(const Record&) { return true; }
bool IsValid(const Record& r) { return r.rcode == dns::Rcode::kNoError; }
bool IsJunk(const Record& r) { return r.rcode != dns::Rcode::kNoError; }
bool IsUdp(const Record& r) { return r.transport == dns::Transport::kUdp; }

std::uint64_t OracleCount(const capture::CaptureBuffer& records,
                          const Pred& pred) {
  return static_cast<std::uint64_t>(
      std::count_if(records.begin(), records.end(), pred));
}

std::map<std::string, std::uint64_t> OracleGroup(
    const capture::CaptureBuffer& records, const Pred& pred,
    const KeyOf& key) {
  std::map<std::string, std::uint64_t> counts;
  for (const Record& r : records) {
    if (pred(r)) ++counts[key(r)];
  }
  return counts;
}

std::string QtypeText(const Record& r) { return std::string(ToString(r.qtype)); }

capture::CaptureBuffer SyntheticBuffer(std::size_t n) {
  capture::CaptureBuffer records;
  records.reserve(n);
  sim::Rng rng(42);
  // Spread records over ~3 months so monthly bucketing has real work.
  const sim::TimeUs start = sim::TimeFromCivil({2020, 2, 1});
  for (std::size_t i = 0; i < n; ++i) {
    Record r;
    r.time_us = start + i * (90 * sim::kMicrosPerDay / n);
    r.server_id = static_cast<std::uint32_t>(rng.NextBelow(3));
    if (rng.Bernoulli(0.4)) {
      r.src = net::IpAddress(net::Ipv4Address(
          static_cast<std::uint32_t>(0x0a000000 + rng.NextBelow(5000))));
    } else {
      auto v6 = *net::Ipv6Address::Parse(
          "2001:db8::" + std::to_string(rng.NextBelow(5000)));
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
    r.edns_udp_size = r.has_edns
                          ? static_cast<std::uint16_t>(
                                512u + 16u * rng.NextBelow(100))
                          : 0;
    records.push_back(std::move(r));
  }
  return records;
}

/// Routes part of SyntheticBuffer's v4 range and part of its v6 range;
/// the rest of the sources stay unrouted.
net::AsDatabase SmallAsDatabase() {
  net::AsDatabase asdb;
  asdb.AddAs(64500, "V4-NET");
  asdb.AddAs(64501, "V6-NET");
  asdb.Announce(*net::Prefix::Parse("10.0.0.0/21"), 64500);
  asdb.Announce(*net::Prefix::Parse("2001:db8::/116"), 64501);
  return asdb;
}

class PlanTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  capture::CaptureBuffer records_ = SyntheticBuffer(20'000);
};

INSTANTIATE_TEST_SUITE_P(Threads, PlanTest, ::testing::Values(1, 2, 8));

TEST_P(PlanTest, CountsMatchLegacyFilters) {
  AnalysisPlan plan;
  auto valid = plan.Count(FilterSpec::Valid());
  auto junk = plan.Count(FilterSpec::Junk());
  auto udp = plan.Count(FilterSpec::Udp());
  auto tcp = plan.Count(FilterSpec::Tcp());
  auto v4 = plan.Count(FilterSpec::V4());
  auto v6 = plan.Count(FilterSpec::V6());
  FilterSpec valid_edns = FilterSpec::Valid();
  valid_edns.custom = [](const Record& r) { return r.has_edns; };
  auto custom = plan.Count(valid_edns);
  plan.Execute(Sharded(records_), GetParam());

  EXPECT_EQ(plan.CountResult(valid), OracleCount(records_, IsValid));
  EXPECT_EQ(plan.CountResult(junk), OracleCount(records_, IsJunk));
  EXPECT_EQ(plan.CountResult(udp), OracleCount(records_, IsUdp));
  EXPECT_EQ(plan.CountResult(tcp), OracleCount(records_, [](const Record& r) {
              return r.transport == dns::Transport::kTcp;
            }));
  EXPECT_EQ(plan.CountResult(v4), OracleCount(records_, [](const Record& r) {
              return r.src.is_v4();
            }));
  EXPECT_EQ(plan.CountResult(v6), OracleCount(records_, [](const Record& r) {
              return r.src.is_v6();
            }));
  EXPECT_EQ(plan.CountResult(custom),
            OracleCount(records_, [](const Record& r) {
              return IsValid(r) && r.has_edns;
            }));
}

TEST_P(PlanTest, GroupBysMatchLegacyCountBy) {
  AnalysisPlan plan;
  auto qtype = plan.GroupBy(FilterSpec::All(), KeySpec::Qtype());
  auto rcode = plan.GroupBy(FilterSpec::Valid(), KeySpec::RcodeKey());
  auto transport = plan.GroupBy(FilterSpec::All(), KeySpec::Transport());
  auto family = plan.GroupBy(FilterSpec::Junk(), KeySpec::Family());
  plan.Execute(Sharded(records_), GetParam());

  auto expect_eq = [this](const Aggregation& got, const Pred& pred,
                          const KeyOf& key) {
    EXPECT_EQ(got.total, OracleCount(records_, pred));
    EXPECT_EQ(got.counts, OracleGroup(records_, pred, key));
  };
  expect_eq(plan.GroupResult(qtype), Any, QtypeText);
  expect_eq(plan.GroupResult(rcode), IsValid, [](const Record& r) {
    return std::string(ToString(r.rcode));
  });
  expect_eq(plan.GroupResult(transport), Any, [](const Record& r) {
    return std::string(ToString(r.transport));
  });
  expect_eq(plan.GroupResult(family), IsJunk, [](const Record& r) {
    return std::string(r.src.is_v4() ? "IPv4" : "IPv6");
  });
}

TEST_P(PlanTest, DistinctAndSketchMatchLegacy) {
  AnalysisPlan plan;
  auto exact = plan.Distinct(FilterSpec::All(), KeySpec::SrcAddress());
  auto exact_udp = plan.Distinct(FilterSpec::Udp(), KeySpec::SrcAddress());
  auto sketch = plan.Sketch(FilterSpec::All(), KeySpec::SrcAddress());
  plan.Execute(Sharded(records_), GetParam());

  auto oracle_distinct = [this](const Pred& pred) {
    std::set<std::string> seen;
    for (const Record& r : records_) {
      if (pred(r)) seen.insert(r.src.ToString());
    }
    return static_cast<std::uint64_t>(seen.size());
  };
  EXPECT_EQ(plan.DistinctResult(exact), oracle_distinct(Any));
  EXPECT_EQ(plan.DistinctResult(exact_udp), oracle_distinct(IsUdp));
  // The sketch must land within HLL's error envelope of the exact count.
  double estimate = plan.SketchResult(sketch).Estimate();
  double exact_count = static_cast<double>(plan.DistinctResult(exact));
  EXPECT_NEAR(estimate, exact_count, exact_count * 0.05);
}

TEST_P(PlanTest, CdfMatchesLegacyCollect) {
  AnalysisPlan plan;
  auto sizes = plan.Collect(
      FilterSpec::Udp(), [](const Record& r) -> std::optional<double> {
        if (!r.has_edns) return std::nullopt;
        return static_cast<double>(r.edns_udp_size);
      });
  plan.Execute(Sharded(records_), GetParam());

  Cdf oracle;
  for (const Record& r : records_) {
    if (IsUdp(r) && r.has_edns) oracle.Add(r.edns_udp_size);
  }
  Cdf& fused = plan.CdfResult(sizes);
  ASSERT_EQ(fused.count(), oracle.count());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(fused.Quantile(q), oracle.Quantile(q));
  }
  EXPECT_DOUBLE_EQ(fused.FractionAtOrBelow(1232),
                   oracle.FractionAtOrBelow(1232));
}

TEST_P(PlanTest, MonthlyBucketsMatchLegacyCountByMonth) {
  AnalysisPlan plan;
  auto months = plan.GroupByMonth(FilterSpec::Valid(), KeySpec::Qtype());
  plan.Execute(Sharded(records_), GetParam());

  std::map<std::string, std::map<std::string, std::uint64_t>> oracle;
  for (const Record& r : records_) {
    if (IsValid(r)) ++oracle[sim::MonthKey(r.time_us)][QtypeText(r)];
  }
  const auto& fused = plan.MonthResult(months);
  ASSERT_EQ(fused.size(), oracle.size());
  for (const auto& [month, counts] : oracle) {
    auto it = fused.find(month);
    ASSERT_NE(it, fused.end()) << month;
    EXPECT_EQ(it->second.counts, counts);
    std::uint64_t total = 0;
    for (const auto& [key, n] : counts) total += n;
    EXPECT_EQ(it->second.total, total);
  }
}

TEST_P(PlanTest, TagFilterAndGrouping) {
  // Tag = 1 for AS64500, 2 for AS64501, 0 unrouted. Tag filters, tag
  // groups and AS groups must match the AS database looked up per record.
  const net::AsDatabase asdb = SmallAsDatabase();
  AnalysisPlan plan;
  plan.SetAsDatabase(asdb);
  plan.SetAsnTag(
      [](std::optional<net::Asn> asn) {
        return static_cast<std::uint16_t>(asn ? *asn - 64499 : 0);
      },
      [](std::uint16_t tag) { return "tag-" + std::to_string(tag); });
  auto tagged = plan.Count(FilterSpec::Tagged(2));
  auto untagged = plan.Count(FilterSpec::Tagged(0));
  auto grouped = plan.GroupBy(FilterSpec::All(), KeySpec::Tag());
  auto ases = plan.GroupBy(FilterSpec::Valid(), KeySpec::SrcAs());
  plan.Execute(Sharded(records_), GetParam());

  auto origin = [&asdb](const Record& r) { return asdb.OriginAs(r.src); };
  EXPECT_EQ(plan.CountResult(tagged), OracleCount(records_, [&](const Record& r) {
              return origin(r) == net::Asn{64501};
            }));
  EXPECT_EQ(plan.CountResult(untagged),
            OracleCount(records_, [&](const Record& r) {
              return !origin(r).has_value();
            }));
  EXPECT_EQ(plan.GroupResult(grouped).counts,
            OracleGroup(records_, Any, [&](const Record& r) {
              auto asn = origin(r);
              return "tag-" + std::to_string(asn ? *asn - 64499 : 0);
            }));
  EXPECT_EQ(plan.GroupResult(grouped).total, records_.size());
  EXPECT_EQ(plan.GroupResult(ases).counts,
            OracleGroup(records_, IsValid, [&](const Record& r) {
              auto asn = origin(r);
              return asn ? "AS" + std::to_string(*asn) : std::string("AS?");
            }));
  // All three outcomes occur, so the comparison is not vacuous.
  EXPECT_EQ(plan.GroupResult(grouped).counts.size(), 3u);
}

TEST(PlanDeterminismTest, IdenticalAcrossThreadCounts) {
  auto records = SyntheticBuffer(30'000);
  auto run = [&records](std::size_t threads) {
    AnalysisPlan plan;
    auto group = plan.GroupBy(FilterSpec::All(), KeySpec::Qtype());
    auto distinct = plan.Distinct(FilterSpec::All(), KeySpec::SrcAddress());
    auto sketch = plan.Sketch(FilterSpec::All(), KeySpec::SrcAddress());
    auto cdf = plan.Collect(
        FilterSpec::All(), [](const Record& r) -> std::optional<double> {
          return static_cast<double>(r.query_size);
        });
    plan.Execute(Sharded(records), threads);
    return std::tuple{plan.GroupResult(group).counts,
                      plan.DistinctResult(distinct),
                      plan.SketchResult(sketch).Estimate(),
                      plan.CdfResult(cdf).Quantile(0.5)};
  };
  auto one = run(1);
  auto two = run(2);
  auto eight = run(8);
  EXPECT_EQ(std::get<0>(one), std::get<0>(two));
  EXPECT_EQ(std::get<0>(one), std::get<0>(eight));
  EXPECT_EQ(std::get<1>(one), std::get<1>(two));
  EXPECT_EQ(std::get<1>(one), std::get<1>(eight));
  EXPECT_DOUBLE_EQ(std::get<2>(one), std::get<2>(two));
  EXPECT_DOUBLE_EQ(std::get<2>(one), std::get<2>(eight));
  EXPECT_DOUBLE_EQ(std::get<3>(one), std::get<3>(two));
  EXPECT_DOUBLE_EQ(std::get<3>(one), std::get<3>(eight));
}

}  // namespace
}  // namespace clouddns::entrada
