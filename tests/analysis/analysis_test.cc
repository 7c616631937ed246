#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "analysis/calibration.h"
#include "analysis/dataset_cache.h"
#include "analysis/experiments.h"
#include "analysis/report.h"

namespace clouddns::analysis {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

TEST(ReportTest, TextTableAlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  std::string out = table.Render();
  EXPECT_NE(out.find("name       value"), std::string::npos);
  EXPECT_NE(out.find("long-name  22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(Percent(0.315), "31.5%");
  EXPECT_EQ(Percent(0.0), "0.0%");
  EXPECT_EQ(Ratio(0.52), "0.52");
  EXPECT_EQ(Count(0), "0");
  EXPECT_EQ(Count(999), "999");
  EXPECT_EQ(Count(1000), "1,000");
  EXPECT_EQ(Count(1234567), "1,234,567");
  EXPECT_EQ(Fixed(3.14159, 2), "3.14");
}

TEST(RdnsTest, SiteTagExtraction) {
  EXPECT_EQ(*SiteTagFromPtr(N("edge-dns-1-2-3-4.ams.tfbnw.example")), "ams");
  EXPECT_EQ(*SiteTagFromPtr(N("r7.syd.tfbnw.example")), "syd");
  EXPECT_FALSE(SiteTagFromPtr(N("too.short")).has_value());
}

TEST(CalibrationTest, PaperTablesAreInternallyConsistent) {
  // Table 3 valid <= total everywhere.
  for (cloud::Vantage vantage :
       {cloud::Vantage::kNl, cloud::Vantage::kNz, cloud::Vantage::kRoot}) {
    for (int year : {2018, 2019, 2020}) {
      auto row = paper::Table3(vantage, year);
      ASSERT_TRUE(row.has_value());
      EXPECT_LT(row->queries_valid_b, row->queries_total_b);
    }
  }
  // Table 5 rows are probability pairs.
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    for (int year : {2018, 2019, 2020}) {
      auto row = paper::Table5(provider, cloud::Vantage::kNl, year);
      ASSERT_TRUE(row.has_value());
      EXPECT_NEAR(row->ipv4 + row->ipv6, 1.0, 0.011);
      EXPECT_NEAR(row->udp + row->tcp, 1.0, 0.011);
    }
  }
  // Table 6 family split sums to the total.
  auto t6 = paper::Table6(cloud::Provider::kAmazon, cloud::Vantage::kNl);
  ASSERT_TRUE(t6.has_value());
  EXPECT_EQ(t6->v4 + t6->v6, t6->total);
}

TEST(CalibrationTest, RootIsJunkier) {
  for (int year : {2018, 2019, 2020}) {
    EXPECT_GT(paper::SectionThreeJunk(cloud::Vantage::kRoot, year),
              paper::SectionThreeJunk(cloud::Vantage::kNl, year));
  }
}

TEST(DatasetCacheTest, CacheKeyDependsOnConfig) {
  cloud::ScenarioConfig a;
  cloud::ScenarioConfig b = a;
  EXPECT_EQ(CacheKey(a), CacheKey(b));
  b.year = 2019;
  EXPECT_NE(CacheKey(a), CacheKey(b));
  b = a;
  b.seed ^= 1;
  EXPECT_NE(CacheKey(a), CacheKey(b));
  b = a;
  b.qmin_override_off = true;
  EXPECT_NE(CacheKey(a), CacheKey(b));
}

TEST(DatasetCacheTest, SecondLoadReusesCapture) {
  std::string dir = ::testing::TempDir() + "/clouddns_cache_test";
  std::filesystem::remove_all(dir);

  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNl;
  config.year = 2020;
  config.client_queries = 15'000;
  config.zone_scale = 0.0005;

  auto first = LoadOrRun(config, dir);
  ASSERT_FALSE(first.records.empty());
  auto second = LoadOrRun(config, dir);
  EXPECT_EQ(first.records, second.records);
  // The rebuilt context still supports enrichment.
  EXPECT_GT(second.asdb.as_count(), 20u);
  EXPECT_FALSE(second.ptr_records.empty());
  std::filesystem::remove_all(dir);
}

TEST(DatasetCacheTest, QueryBudgetEnvOverride) {
  ::unsetenv("CLOUDDNS_QUERIES");
  EXPECT_EQ(EffectiveQueryBudget(123), 123u);
  ::setenv("CLOUDDNS_QUERIES", "777", 1);
  EXPECT_EQ(EffectiveQueryBudget(123), 777u);
  ::setenv("CLOUDDNS_QUERIES", "garbage", 1);
  EXPECT_EQ(EffectiveQueryBudget(123), 123u);
  ::unsetenv("CLOUDDNS_QUERIES");
}

TEST(DatasetCacheTest, QueryBudgetEnvParsedStrictly) {
  // "-1" must not wrap to 2^64-1 (an endless simulation), nor "8x" read
  // as 8; 2^64 overflows. Each falls back to the configured budget.
  for (const char* bad : {"-1", "8x", "", "18446744073709551616"}) {
    ::setenv("CLOUDDNS_QUERIES", bad, 1);
    EXPECT_EQ(EffectiveQueryBudget(20'000), 20'000u) << '"' << bad << '"';
  }
  ::setenv("CLOUDDNS_QUERIES", "123", 1);
  EXPECT_EQ(EffectiveQueryBudget(20'000), 123u);
  ::unsetenv("CLOUDDNS_QUERIES");
}

TEST(ExperimentsTest, EdnsStatsOnSyntheticRecords) {
  cloud::ScenarioResult result;
  cloud::RegisterProviderAses(result.asdb);
  capture::CaptureBuffer records;
  auto add = [&records](const char* src, std::uint16_t edns, bool tc,
                        dns::Transport transport) {
    capture::CaptureRecord r;
    r.src = *net::IpAddress::Parse(src);
    r.qname = *dns::Name::Parse("x.nl");
    r.transport = transport;
    r.has_edns = edns > 0;
    r.edns_udp_size = edns;
    r.tc = tc;
    records.push_back(std::move(r));
  };
  // Facebook: 2 x 512 (one truncated), 1 x 4096, 1 TCP.
  add("66.220.144.1", 512, true, dns::Transport::kUdp);
  add("66.220.144.2", 512, false, dns::Transport::kUdp);
  add("66.220.144.3", 4096, false, dns::Transport::kUdp);
  add("66.220.144.3", 4096, false, dns::Transport::kTcp);
  result.records = capture::ShardedCapture(std::move(records));

  auto stats = ComputeEdnsStats(result, cloud::Provider::kFacebook);
  EXPECT_NEAR(stats.fraction_at_512, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.truncated_udp, 1.0 / 3.0, 1e-9);
  ASSERT_EQ(stats.cdf.size(), 2u);
}

TEST(ExperimentsTest, FacebookSitesMatchDualStackByPtrName) {
  cloud::ScenarioResult result;
  cloud::RegisterProviderAses(result.asdb);
  auto ip = [](const char* text) { return *net::IpAddress::Parse(text); };
  result.ptr_records = {
      // ams names embed the host's v4 address; host .5 is dual-stack.
      {ip("66.220.144.5"), N("edge-dns-66-220-144-5.ams.tfbnw.example")},
      {ip("2a03:2880::5"), N("edge-dns-66-220-144-5.ams.tfbnw.example")},
      {ip("66.220.144.6"), N("edge-dns-66-220-144-6.ams.tfbnw.example")},
      // sjc names omit the address; r0 is dual-stack, matched across case.
      {ip("157.240.0.1"), N("edge-dns-r0.sjc.tfbnw.example")},
      {ip("2a03:2880::100"), N("EDGE-DNS-R0.sjc.tfbnw.example")},
      {ip("2a03:2880::101"), N("edge-dns-r1.sjc.tfbnw.example")},
      // A second PTR for .6 loses to its first; a short name has no site.
      {ip("66.220.144.6"), N("edge-dns-other.fra.tfbnw.example")},
      {ip("66.220.144.7"), N("short.example")},
      // Not Facebook's address space: never a Facebook site.
      {ip("8.8.8.8"), N("x.lhr.google.example")},
  };
  capture::CaptureBuffer shard0, shard1;
  auto add = [&ip](capture::CaptureBuffer& shard, const char* src,
                   std::uint32_t rtt_us = 0, std::uint32_t server = 0) {
    capture::CaptureRecord r;
    r.src = ip(src);
    r.server_id = server;
    r.qname = *dns::Name::Parse("x.nl");
    if (rtt_us > 0) {
      r.transport = dns::Transport::kTcp;
      r.tcp_handshake_rtt_us = rtt_us;
    }
    shard.push_back(std::move(r));
  };
  add(shard0, "66.220.144.5", 10'000);
  add(shard1, "66.220.144.5");
  add(shard0, "2a03:2880::5", 30'000);
  add(shard1, "66.220.144.6");
  add(shard0, "157.240.0.1");
  add(shard1, "2a03:2880::100");
  add(shard0, "2a03:2880::101");
  add(shard1, "66.220.144.9");         // no PTR: skipped
  add(shard0, "66.220.144.7");         // no site in its PTR: skipped
  add(shard1, "8.8.8.8");              // another provider: skipped
  add(shard0, "66.220.144.5", 0, 1);   // another server: skipped
  result.records =
      capture::ShardedCapture::FromShards({std::move(shard0), std::move(shard1)});

  auto sites = ComputeFacebookSites(result, 0);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].site, "ams");
  EXPECT_EQ(sites[0].queries, 4u);
  EXPECT_DOUBLE_EQ(sites[0].v6_share, 0.25);
  EXPECT_EQ(sites[0].median_rtt_v4_ms, 10.0);
  EXPECT_EQ(sites[0].median_rtt_v6_ms, 30.0);
  EXPECT_EQ(sites[0].dual_stack_hosts, 1u);
  EXPECT_EQ(sites[1].site, "sjc");
  EXPECT_EQ(sites[1].queries, 3u);
  EXPECT_DOUBLE_EQ(sites[1].v6_share, 2.0 / 3.0);
  EXPECT_FALSE(sites[1].median_rtt_v4_ms.has_value());
  EXPECT_FALSE(sites[1].median_rtt_v6_ms.has_value());
  EXPECT_EQ(sites[1].dual_stack_hosts, 1u);
}

TEST(ExperimentsTest, FacebookSitesTiedOnQueriesComeInSiteOrder) {
  // More sites than libstdc++'s insertion-sort cutoff (16), so an unstable
  // sort by query count could reorder the tied ones.
  cloud::ScenarioResult result;
  cloud::RegisterProviderAses(result.asdb);
  capture::CaptureBuffer shard;
  auto add = [&](const std::string& address, const std::string& site) {
    const net::IpAddress src = *net::IpAddress::Parse(address);
    result.ptr_records.emplace_back(
        src, *dns::Name::Parse("edge." + site + ".tfbnw.example"));
    capture::CaptureRecord r;
    r.src = src;
    r.qname = *dns::Name::Parse("x.nl");
    shard.push_back(r);
  };
  // Sites are added in reverse name order; "top" has two queries.
  for (int i = 19; i >= 0; --i) {
    const std::string site = "s" + std::string(i < 10 ? "0" : "") +
                             std::to_string(i);
    add("157.240.0." + std::to_string(10 + i), site);
  }
  add("157.240.1.1", "top");
  add("157.240.1.2", "top");
  result.records = capture::ShardedCapture::FromShards({std::move(shard)});

  const auto sites = ComputeFacebookSites(result, 0);
  ASSERT_EQ(sites.size(), 21u);
  EXPECT_EQ(sites[0].site, "top");
  EXPECT_EQ(sites[0].queries, 2u);
  for (std::size_t i = 1; i < sites.size(); ++i) {
    EXPECT_EQ(sites[i].queries, 1u);
    const std::string expected =
        (i - 1 < 10 ? "s0" : "s") + std::to_string(i - 1);
    EXPECT_EQ(sites[i].site, expected) << "position " << i;
  }
}

TEST(ExperimentsTest, TransportMixOnSyntheticRecords) {
  cloud::ScenarioResult result;
  cloud::RegisterProviderAses(result.asdb);
  capture::CaptureRecord r;
  r.qname = *dns::Name::Parse("x.nl");
  r.src = *net::IpAddress::Parse("8.8.8.8");
  capture::CaptureBuffer records = {r};
  r.src = *net::IpAddress::Parse("2001:4860:1000::1");
  r.transport = dns::Transport::kTcp;
  records.push_back(r);
  result.records = capture::ShardedCapture(std::move(records));

  auto mix = ComputeTransportMixes(result)[cloud::Provider::kGoogle];
  EXPECT_EQ(mix.total, 2u);
  EXPECT_DOUBLE_EQ(mix.ipv4, 0.5);
  EXPECT_DOUBLE_EQ(mix.ipv6, 0.5);
  EXPECT_DOUBLE_EQ(mix.tcp, 0.5);
}

}  // namespace
}  // namespace clouddns::analysis
