// Scenario integration tests: small end-to-end runs asserting the
// headline *shapes* the benches report at full budget. Budgets here are
// kept small so the whole file runs in seconds.
#include "cloud/scenario.h"

#include <gtest/gtest.h>

#include "analysis/experiments.h"

namespace clouddns::cloud {
namespace {

ScenarioConfig SmallConfig(Vantage vantage, int year) {
  ScenarioConfig config;
  config.vantage = vantage;
  config.year = year;
  config.client_queries = 40'000;
  config.zone_scale = 0.001;
  return config;
}

/// The provider whose AS originates the record's source address.
Provider ProviderOfSource(const ScenarioResult& result,
                          const capture::CaptureRecord& record) {
  auto asn = result.asdb.OriginAs(record.src);
  return asn ? ProviderOfAsn(*asn) : Provider::kOther;
}

TEST(ScenarioTest, WeekStartMatchesPaperDates) {
  EXPECT_EQ(sim::DateString(WeekStart(Vantage::kNl, 2018)), "2018-11-04");
  EXPECT_EQ(sim::DateString(WeekStart(Vantage::kNl, 2020)), "2020-04-05");
  EXPECT_EQ(sim::DateString(WeekStart(Vantage::kRoot, 2020)), "2020-05-06");
  EXPECT_EQ(WindowLength(Vantage::kNl), 7 * sim::kMicrosPerDay);
  EXPECT_EQ(WindowLength(Vantage::kRoot), sim::kMicrosPerDay);
}

TEST(ScenarioTest, NlCapturesOnlyTheTwoMonitoredServers) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  ASSERT_FALSE(result.records.empty());
  for (const auto& record : result.records.FlattenCopy()) {
    EXPECT_LT(record.server_id, 2u);
  }
  int captured = 0, cctld_servers = 0;
  for (const auto& server : result.servers) {
    if (server.id >= 100) continue;  // root letters
    ++cctld_servers;
    captured += server.captured;
  }
  EXPECT_EQ(cctld_servers, 3 + 7);  // .nl 2020 has 3 NSes, .nz has 7
  EXPECT_EQ(captured, 2);
}

TEST(ScenarioTest, RecordsAreTimeOrderedAndInsideWindow) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  for (std::size_t s = 0; s < result.records.shard_count(); ++s) {
    sim::TimeUs previous = 0;
    for (const auto& record : result.records.shard(s)) {
      EXPECT_GE(record.time_us, previous);
      EXPECT_GE(record.time_us, result.window_start);
      previous = record.time_us;
    }
  }
}

TEST(ScenarioTest, DeterministicForSameSeed) {
  auto a = RunScenario(SmallConfig(Vantage::kNl, 2020));
  auto b = RunScenario(SmallConfig(Vantage::kNl, 2020));
  ASSERT_EQ(a.records.size(), b.records.size());
  const capture::CaptureBuffer flat_a = a.records.FlattenCopy();
  const capture::CaptureBuffer flat_b = b.records.FlattenCopy();
  EXPECT_EQ(flat_a.front(), flat_b.front());
  EXPECT_EQ(flat_a.back(), flat_b.back());
}

TEST(ScenarioTest, SeedChangesTraffic) {
  auto a = RunScenario(SmallConfig(Vantage::kNl, 2020));
  ScenarioConfig other = SmallConfig(Vantage::kNl, 2020);
  other.seed ^= 1;
  auto b = RunScenario(other);
  EXPECT_NE(a.records.size(), b.records.size());
}

TEST(ScenarioTest, CloudShareIsAboutOneThirdAtCcTld) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  auto shares = analysis::ComputeCloudShares(result);
  double cp_share = shares.back().share;
  EXPECT_GT(cp_share, 0.22);
  EXPECT_LT(cp_share, 0.45);
  // Google is the largest CP (§4.1).
  EXPECT_EQ(shares[0].provider, Provider::kGoogle);
  for (std::size_t i = 1; i + 1 < shares.size(); ++i) {
    EXPECT_GE(shares[0].queries, shares[i].queries);
  }
}

TEST(ScenarioTest, RootSeesFarLessCloudAndFarMoreJunk) {
  ScenarioConfig config = SmallConfig(Vantage::kRoot, 2020);
  config.client_queries = 120'000;
  auto root = RunScenario(config);
  auto cctld = RunScenario(SmallConfig(Vantage::kNl, 2020));

  // At bench scale the gap is ~6-12% vs ~30%; the reduced test budget
  // inflates the root's TTL-driven maintenance share, so the bound here
  // is looser but still requires a clear contrast.
  double root_cp = analysis::ComputeCloudShares(root).back().share;
  double cctld_cp = analysis::ComputeCloudShares(cctld).back().share;
  EXPECT_LT(root_cp, cctld_cp * 0.65);

  // At this reduced test budget the root's TTL-driven maintenance traffic
  // weighs more than at bench scale, so the junk threshold is looser; the
  // root-vs-ccTLD contrast is what matters.
  double root_junk = analysis::ComputeJunkRatios(root).overall;
  double cctld_junk = analysis::ComputeJunkRatios(cctld).overall;
  EXPECT_GT(root_junk, 0.40);
  EXPECT_LT(cctld_junk, 0.35);
  EXPECT_GT(root_junk, cctld_junk * 1.5);
}

TEST(ScenarioTest, MicrosoftIsPureV4UdpEveryYear) {
  for (int year : {2018, 2020}) {
    auto result = RunScenario(SmallConfig(Vantage::kNl, year));
    auto mix = analysis::ComputeTransportMixes(result)[Provider::kMicrosoft];
    ASSERT_GT(mix.total, 100u);
    EXPECT_GT(mix.ipv4, 0.99);
    EXPECT_GT(mix.udp, 0.99);
  }
}

TEST(ScenarioTest, FacebookPrefersV6From2019) {
  auto y2018 = RunScenario(SmallConfig(Vantage::kNl, 2018));
  auto y2020 = RunScenario(SmallConfig(Vantage::kNl, 2020));
  auto mix2018 = analysis::ComputeTransportMixes(y2018)[Provider::kFacebook];
  auto mixes2020 = analysis::ComputeTransportMixes(y2020);
  auto mix2020 = mixes2020[Provider::kFacebook];
  EXPECT_NEAR(mix2018.ipv6, 0.48, 0.15);
  EXPECT_GT(mix2020.ipv6, 0.60);
  // Facebook is the only CP with a material TCP share.
  EXPECT_GT(mix2020.tcp, 0.05);
  auto google = mixes2020[Provider::kGoogle];
  EXPECT_LT(google.tcp, 0.005);
}

TEST(ScenarioTest, GooglePublicSplitNearTableFour) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  auto split = analysis::ComputeGoogleSplit(result);
  EXPECT_NEAR(split.QueryRatio(), 0.865, 0.08);
  EXPECT_LT(split.ResolverRatio(), 0.35);
}

TEST(ScenarioTest, QminShowsUpOnlyIn2020NsMix) {
  auto y2019 = RunScenario(SmallConfig(Vantage::kNl, 2019));
  auto y2020 = RunScenario(SmallConfig(Vantage::kNl, 2020));
  auto ns2019 = analysis::ComputeRrTypeMixes(y2019)[Provider::kGoogle]["NS"];
  auto ns2020 = analysis::ComputeRrTypeMixes(y2020)[Provider::kGoogle]["NS"];
  EXPECT_LT(ns2019, 0.10);
  EXPECT_GT(ns2020, 0.40);
}

TEST(ScenarioTest, QminOverrideKillsTheNsSurge) {
  ScenarioConfig config = SmallConfig(Vantage::kNl, 2020);
  config.qmin_override_off = true;
  auto result = RunScenario(config);
  auto ns = analysis::ComputeRrTypeMixes(result)[Provider::kGoogle]["NS"];
  EXPECT_LT(ns, 0.10);
}

TEST(ScenarioTest, CloudflareDsExceedsDnskey) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  auto mixes = analysis::ComputeRrTypeMixes(result);
  auto& mix = mixes[Provider::kCloudflare];
  EXPECT_GT(mix["DS"], mix["DNSKEY"] * 2);
  auto& microsoft = mixes[Provider::kMicrosoft];
  EXPECT_LT(microsoft["DS"] + microsoft["DNSKEY"], 0.01);
}

TEST(ScenarioTest, PtrRecordsCoverFacebookSources) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  std::unordered_map<net::IpAddress, bool, net::IpAddressHash> has_ptr;
  for (const auto& [address, name] : result.ptr_records) {
    has_ptr[address] = true;
  }
  int facebook_sources = 0, with_ptr = 0;
  for (const auto& record : result.records.FlattenCopy()) {
    if (ProviderOfSource(result, record) != Provider::kFacebook) continue;
    ++facebook_sources;
    with_ptr += has_ptr.count(record.src) > 0;
  }
  ASSERT_GT(facebook_sources, 0);
  // Nearly all Facebook sources have PTR records (the paper saw only 3
  // addresses without).
  EXPECT_GT(with_ptr, facebook_sources * 9 / 10);
}

TEST(ScenarioTest, GoogleOnlyModeSilencesOtherFleets) {
  ScenarioConfig config = SmallConfig(Vantage::kNl, 2020);
  config.google_only = true;
  auto result = RunScenario(config);
  for (const auto& record : result.records.FlattenCopy()) {
    EXPECT_EQ(ProviderOfSource(result, record), Provider::kGoogle);
  }
}

TEST(ScenarioTest, ZoneScaleControlsDomainCount) {
  auto result = RunScenario(SmallConfig(Vantage::kNl, 2020));
  // 5.9M * 0.001 (plus the unscaled .nz zones built alongside).
  EXPECT_GT(result.zone_domain_count, 5'000u);
  EXPECT_LT(result.zone_domain_count, 8'000u);
}

}  // namespace
}  // namespace clouddns::cloud
