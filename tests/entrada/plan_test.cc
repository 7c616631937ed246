// AnalysisPlan, the only capture-aggregation API, checked two ways:
//  - literal expectations on a 4-record fixture (AnalyticsTest);
//  - equivalence on a 20'000-record synthetic buffer against an oracle of
//    plain loops (std::count_if, std::map keyed by ToString) that shares
//    no code with the plan, single-threaded and chunked across workers.
// HLL sketches are compared as estimates against the exact count.
#include "entrada/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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
using Kind = FilterSpec::Kind;

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
  capture::CaptureBuffer records = MakeRecords();
  records[0].tcp_handshake_rtt_us = 9'000;   // UDP: no handshake to time
  records[3].tcp_handshake_rtt_us = 12'500;  // the one TCP record
  AnalysisPlan plan;
  auto rtt = plan.Collect(FilterSpec::All(), ValueKind::kTcpRttMs);
  auto sizes = plan.Collect(FilterSpec::All(), ValueKind::kEdnsUdpSize);
  plan.Execute(Sharded(std::move(records)));
  ASSERT_EQ(plan.CdfResult(rtt).count(), 1u);
  EXPECT_DOUBLE_EQ(plan.CdfResult(rtt).Median(), 12.5);
  EXPECT_EQ(plan.CdfResult(sizes).count(), 4u);
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
  EXPECT_THROW((void)plan.Collect(FilterSpec::All(), ValueKind::kQuerySize,
                                  KeySpec::SrcAddress()),
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
    r.tc = rng.Bernoulli(0.1);
    // Some TCP records carry no handshake RTT; some UDP records carry a
    // stray one that no RTT statistic may read.
    r.tcp_handshake_rtt_us =
        rng.Bernoulli(0.8) ? static_cast<std::uint32_t>(rng.NextBelow(90'000))
                           : 0;
    r.query_size = static_cast<std::uint16_t>(30 + rng.NextBelow(200));
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

INSTANTIATE_TEST_SUITE_P(Threads, PlanTest, ::testing::Values(1, 2, 4, 8));

TEST_P(PlanTest, CountsMatchLegacyFilters) {
  AnalysisPlan plan;
  auto valid = plan.Count(FilterSpec::Valid());
  auto junk = plan.Count(FilterSpec::Junk());
  auto udp = plan.Count(FilterSpec::Udp());
  auto tcp = plan.Count(FilterSpec::Tcp());
  auto v4 = plan.Count(FilterSpec::V4());
  auto v6 = plan.Count(FilterSpec::V6());
  // Filters as plain data: {kind, required flags, server, tag}.
  auto valid_edns = plan.Count({Kind::kValid, FilterSpec::kEdns, {}, {}});
  auto udp_tc = plan.Count({Kind::kUdp, FilterSpec::kTc, {}, {}});
  auto edns_tc =
      plan.Count({Kind::kAll, FilterSpec::kEdns | FilterSpec::kTc, {}, {}});
  auto server1 = plan.Count({Kind::kAll, 0, 1, {}});
  auto v6_server2 = plan.Count({Kind::kV6, 0, 2, {}});
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
  EXPECT_EQ(plan.CountResult(valid_edns),
            OracleCount(records_, [](const Record& r) {
              return IsValid(r) && r.has_edns;
            }));
  EXPECT_EQ(plan.CountResult(udp_tc),
            OracleCount(records_, [](const Record& r) {
              return IsUdp(r) && r.tc;
            }));
  EXPECT_EQ(plan.CountResult(edns_tc),
            OracleCount(records_, [](const Record& r) {
              return r.has_edns && r.tc;
            }));
  EXPECT_EQ(plan.CountResult(server1),
            OracleCount(records_, [](const Record& r) {
              return r.server_id == 1;
            }));
  EXPECT_EQ(plan.CountResult(v6_server2),
            OracleCount(records_, [](const Record& r) {
              return r.src.is_v6() && r.server_id == 2;
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

/// The same samples, compared through the statistics the reports read.
void ExpectSameCdf(Cdf& got, Cdf& want) {
  ASSERT_EQ(got.count(), want.count());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(got.Quantile(q), want.Quantile(q));
  }
  EXPECT_DOUBLE_EQ(got.FractionAtOrBelow(1232), want.FractionAtOrBelow(1232));
  EXPECT_EQ(got.Curve(), want.Curve());
}

TEST_P(PlanTest, CdfMatchesLegacyCollect) {
  AnalysisPlan plan;
  auto sizes = plan.Collect({Kind::kUdp, FilterSpec::kEdns, {}, {}},
                            ValueKind::kEdnsUdpSize);
  auto rtts = plan.Collect(FilterSpec::V4(), ValueKind::kTcpRttMs);
  auto query_sizes = plan.Collect(FilterSpec::Junk(), ValueKind::kQuerySize);
  plan.Execute(Sharded(records_), GetParam());

  Cdf oracle_sizes, oracle_rtts, oracle_query_sizes;
  for (const Record& r : records_) {
    if (IsUdp(r) && r.has_edns) oracle_sizes.Add(r.edns_udp_size);
    if (r.src.is_v4() && r.transport == dns::Transport::kTcp &&
        r.tcp_handshake_rtt_us > 0) {
      oracle_rtts.Add(r.tcp_handshake_rtt_us / 1000.0);
    }
    if (IsJunk(r)) oracle_query_sizes.Add(r.query_size);
  }
  ASSERT_GT(oracle_rtts.count(), 0u);
  ExpectSameCdf(plan.CdfResult(sizes), oracle_sizes);
  ExpectSameCdf(plan.CdfResult(rtts), oracle_rtts);
  ExpectSameCdf(plan.CdfResult(query_sizes), oracle_query_sizes);
}

TEST_P(PlanTest, KeyedCollectMatchesPerKeyLoops) {
  // One CDF per key: TCP RTTs per family at one server, and query sizes
  // per qtype.
  AnalysisPlan plan;
  auto rtts = plan.Collect({Kind::kAll, 0, 1, {}}, ValueKind::kTcpRttMs,
                           KeySpec::Family());
  auto sizes = plan.Collect(FilterSpec::Valid(), ValueKind::kQuerySize,
                            KeySpec::Qtype());
  plan.Execute(Sharded(records_), GetParam());

  std::map<std::string, Cdf> oracle_rtts, oracle_sizes;
  for (const Record& r : records_) {
    if (r.server_id == 1 && r.transport == dns::Transport::kTcp &&
        r.tcp_handshake_rtt_us > 0) {
      oracle_rtts[r.src.is_v4() ? "IPv4" : "IPv6"].Add(
          r.tcp_handshake_rtt_us / 1000.0);
    }
    if (IsValid(r)) oracle_sizes[QtypeText(r)].Add(r.query_size);
  }
  auto expect_same = [](std::map<std::string, Cdf>& got,
                        std::map<std::string, Cdf>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (auto& [key, cdf] : want) {
      ASSERT_TRUE(got.contains(key)) << key;
      ExpectSameCdf(got.at(key), cdf);
    }
  };
  ASSERT_EQ(oracle_rtts.size(), 2u);
  expect_same(plan.KeyedCdfResult(rtts), oracle_rtts);
  expect_same(plan.KeyedCdfResult(sizes), oracle_sizes);
}

TEST_P(PlanTest, HourKeyMatchesPlainLoop) {
  AnalysisPlan plan;
  auto hours = plan.GroupBy(FilterSpec::Tcp(), KeySpec::Hour());
  plan.Execute(Sharded(records_), GetParam());

  auto hour_text = [](const Record& r) {
    char hour[8];
    std::snprintf(hour, sizeof hour, "T%02u",
                  static_cast<unsigned>(r.time_us / 3'600'000'000ull % 24));
    return sim::DateString(r.time_us) + hour;
  };
  const auto oracle = OracleGroup(
      records_,
      [](const Record& r) { return r.transport == dns::Transport::kTcp; },
      hour_text);
  EXPECT_GT(oracle.size(), 100u);
  EXPECT_EQ(plan.GroupResult(hours).counts, oracle);
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
  plan.SetSourceTag(
      [](const net::IpAddress&, std::optional<net::Asn> asn) {
        return static_cast<std::uint32_t>(asn ? *asn - 64499 : 0);
      },
      [](std::uint32_t tag) { return "tag-" + std::to_string(tag); });
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

TEST_P(PlanTest, SourceTagSeesTheAddress) {
  // The tag reads the address itself, not only its AS: routed sources
  // split by the parity of their last address byte. Address-keyed tags
  // (Table 4's public ranges, Fig. 5's PTR hosts) have this shape.
  const net::AsDatabase asdb = SmallAsDatabase();
  auto tag_of = [](const net::IpAddress& src, std::optional<net::Asn> asn) {
    const std::uint8_t last =
        src.is_v4() ? src.v4().ToBytes()[3]
                    : static_cast<std::uint8_t>(src.v6().group(7));
    return static_cast<std::uint32_t>(asn ? 1 + last % 2 : 0);
  };
  AnalysisPlan plan;
  plan.SetAsDatabase(asdb);
  plan.SetSourceTag(tag_of);
  auto grouped = plan.GroupBy(FilterSpec::Valid(), KeySpec::Tag());
  auto odd = plan.Distinct(FilterSpec::Tagged(2), KeySpec::SrcAddress());
  auto even = plan.Distinct(FilterSpec::Tagged(1), KeySpec::SrcAddress());
  auto routed = plan.Distinct(FilterSpec::All(), KeySpec::SrcAs());
  auto rtt_by_tag =
      plan.Collect(FilterSpec::Tcp(), ValueKind::kTcpRttMs, KeySpec::Tag());
  plan.Execute(Sharded(records_), GetParam());

  auto tag_text = [&](const Record& r) {
    return std::to_string(tag_of(r.src, asdb.OriginAs(r.src)));
  };
  EXPECT_EQ(plan.GroupResult(grouped).counts,
            OracleGroup(records_, IsValid, tag_text));
  std::set<std::string> oracle_odd, oracle_even;
  std::map<std::string, Cdf> oracle_rtts;
  for (const Record& r : records_) {
    const std::string tag = tag_text(r);
    if (tag == "2") oracle_odd.insert(r.src.ToString());
    if (tag == "1") oracle_even.insert(r.src.ToString());
    if (r.transport == dns::Transport::kTcp && r.tcp_handshake_rtt_us > 0) {
      oracle_rtts[tag].Add(r.tcp_handshake_rtt_us / 1000.0);
    }
  }
  ASSERT_FALSE(oracle_odd.empty());
  ASSERT_FALSE(oracle_even.empty());
  EXPECT_EQ(plan.DistinctResult(odd), oracle_odd.size());
  EXPECT_EQ(plan.DistinctResult(even), oracle_even.size());
  EXPECT_EQ(plan.DistinctResult(routed), 3u);  // two ASes and "AS?"
  auto& rtts = plan.KeyedCdfResult(rtt_by_tag);
  ASSERT_EQ(rtts.size(), 3u);
  for (auto& [tag, cdf] : oracle_rtts) ExpectSameCdf(rtts.at(tag), cdf);
}

TEST(PlanDeterminismTest, IdenticalAcrossThreadCounts) {
  auto records = SyntheticBuffer(30'000);
  auto run = [&records](std::size_t threads) {
    AnalysisPlan plan;
    auto group = plan.GroupBy(FilterSpec::All(), KeySpec::Qtype());
    auto distinct = plan.Distinct(FilterSpec::All(), KeySpec::SrcAddress());
    auto sketch = plan.Sketch(FilterSpec::All(), KeySpec::SrcAddress());
    auto cdf = plan.Collect(FilterSpec::All(), ValueKind::kQuerySize);
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
