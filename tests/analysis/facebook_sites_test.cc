// Fig. 5/8's per-site rows run on the query engine: a source tag names
// each Facebook address's PTR host, and the hosts roll up into sites. The
// record loop those rows came from before stays here as the oracle, run on
// a reduced-budget .nl w2020 capture for both monitored servers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/paper_reports.h"
#include "entrada/cdf.h"

namespace clouddns::analysis {
namespace {

/// The hand-written scan: an address keeps its first PTR, names that
/// differ only in case are one host, only Facebook-AS sources at
/// `server_id` count, RTTs come from TCP records with a handshake RTT,
/// and sites rank by queries with ties in site-name order.
std::vector<FacebookSiteStats> OracleFacebookSites(
    const cloud::ScenarioResult& result, std::uint32_t server_id) {
  std::unordered_map<net::IpAddress, const dns::Name*, net::IpAddressHash>
      ptr_of;
  for (const auto& [address, target] : result.ptr_records) {
    ptr_of.emplace(address, &target);
  }
  struct SiteAccumulator {
    std::uint64_t queries = 0;
    std::uint64_t v6 = 0;
    entrada::Cdf tcp_rtt_v4_ms;
    entrada::Cdf tcp_rtt_v6_ms;
    std::map<dns::Name, std::uint8_t> families;  // bit 0 = v4, bit 1 = v6
  };
  std::map<std::string, SiteAccumulator> sites;
  for (std::size_t s = 0; s < result.records.shard_count(); ++s) {
    for (const auto& record : result.records.shard(s)) {
      if (record.server_id != server_id) continue;
      auto asn = result.asdb.OriginAs(record.src);
      if (!asn || cloud::ProviderOfAsn(*asn) != cloud::Provider::kFacebook) {
        continue;
      }
      auto ptr = ptr_of.find(record.src);
      if (ptr == ptr_of.end()) continue;
      auto site = SiteTagFromPtr(*ptr->second);
      if (!site) continue;
      SiteAccumulator& acc = sites[*site];
      const bool v6 = record.src.is_v6();
      ++acc.queries;
      acc.v6 += v6;
      if (record.transport == dns::Transport::kTcp &&
          record.tcp_handshake_rtt_us > 0) {
        (v6 ? acc.tcp_rtt_v6_ms : acc.tcp_rtt_v4_ms)
            .Add(static_cast<double>(record.tcp_handshake_rtt_us) / 1000.0);
      }
      acc.families[*ptr->second] |= v6 ? 2 : 1;
    }
  }
  std::vector<FacebookSiteStats> stats;
  for (auto& [site, acc] : sites) {
    FacebookSiteStats row;
    row.site = site;
    row.queries = acc.queries;
    row.v6_share =
        static_cast<double>(acc.v6) / static_cast<double>(acc.queries);
    if (acc.tcp_rtt_v4_ms.count() > 0) {
      row.median_rtt_v4_ms = acc.tcp_rtt_v4_ms.Median();
    }
    if (acc.tcp_rtt_v6_ms.count() > 0) {
      row.median_rtt_v6_ms = acc.tcp_rtt_v6_ms.Median();
    }
    row.dual_stack_hosts = static_cast<std::size_t>(std::count_if(
        acc.families.begin(), acc.families.end(),
        [](const auto& entry) { return entry.second == 3; }));
    stats.push_back(std::move(row));
  }
  std::stable_sort(stats.begin(), stats.end(),
                   [](const FacebookSiteStats& a, const FacebookSiteStats& b) {
                     return a.queries > b.queries;
                   });
  return stats;
}

void ExpectSameSites(const std::vector<FacebookSiteStats>& got,
                     const std::vector<FacebookSiteStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i) + " (" + want[i].site + ")");
    EXPECT_EQ(got[i].site, want[i].site);
    EXPECT_EQ(got[i].queries, want[i].queries);
    EXPECT_EQ(got[i].v6_share, want[i].v6_share);
    EXPECT_EQ(got[i].median_rtt_v4_ms, want[i].median_rtt_v4_ms);
    EXPECT_EQ(got[i].median_rtt_v6_ms, want[i].median_rtt_v6_ms);
    EXPECT_EQ(got[i].dual_stack_hosts, want[i].dual_stack_hosts);
  }
}

bool IsFacebook(const cloud::ScenarioResult& result,
                const net::IpAddress& address) {
  auto asn = result.asdb.OriginAs(address);
  return asn && cloud::ProviderOfAsn(*asn) == cloud::Provider::kFacebook;
}

class FacebookSitesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cloud::ScenarioConfig config =
        StandardConfig(cloud::Vantage::kNl, 2020);
    config.client_queries = 80'000;
    scenario_ = new cloud::ScenarioResult(cloud::RunScenario(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static cloud::ScenarioResult* scenario_;
};

cloud::ScenarioResult* FacebookSitesTest::scenario_ = nullptr;

TEST_F(FacebookSitesTest, MatchTheRecordLoopAtBothServers) {
  for (std::uint32_t server : {0u, 1u}) {
    SCOPED_TRACE("server " + std::to_string(server));
    const auto want = OracleFacebookSites(*scenario_, server);
    // Not vacuous: several sites, RTTs over both families, and
    // dual-stack hosts.
    ASSERT_GE(want.size(), 5u);
    std::size_t with_v4_rtt = 0, with_v6_rtt = 0, dual_stack = 0;
    for (const auto& row : want) {
      with_v4_rtt += row.median_rtt_v4_ms.has_value();
      with_v6_rtt += row.median_rtt_v6_ms.has_value();
      dual_stack += row.dual_stack_hosts;
    }
    EXPECT_GE(with_v4_rtt, 3u);
    EXPECT_GE(with_v6_rtt, 3u);
    EXPECT_GT(dual_stack, 0u);
    ExpectSameSites(ComputeFacebookSites(*scenario_, server), want);
  }
}

TEST_F(FacebookSitesTest, MatchTheRecordLoopUnderPtrQuirks) {
  // Two quirks the generated fleet lacks: every Facebook v6 address's PTR
  // host label in upper case, so each dual-stack host matches only across
  // case, and a later PTR record for every third Facebook v4 address
  // naming another site, which must lose to the first.
  cloud::ScenarioResult result = *scenario_;
  std::vector<std::pair<net::IpAddress, dns::Name>> later;
  std::size_t v4_index = 0;
  for (auto& [address, target] : result.ptr_records) {
    if (!IsFacebook(result, address)) continue;
    if (address.is_v6()) {
      std::string name = target.ToString();
      std::transform(name.begin(), name.begin() + name.find('.'), name.begin(),
                     [](char c) {
                       return static_cast<char>(
                           std::toupper(static_cast<unsigned char>(c)));
                     });
      target = *dns::Name::Parse(name);
    } else if (v4_index++ % 3 == 0) {
      later.emplace_back(address, *dns::Name::Parse("late.zzz.tfbnw.example"));
    }
  }
  ASSERT_FALSE(later.empty());
  result.ptr_records.insert(result.ptr_records.end(), later.begin(),
                            later.end());

  for (std::uint32_t server : {0u, 1u}) {
    SCOPED_TRACE("server " + std::to_string(server));
    const auto want = OracleFacebookSites(result, server);
    std::size_t dual_stack = 0;
    for (const auto& row : want) dual_stack += row.dual_stack_hosts;
    EXPECT_GT(dual_stack, 0u);
    ExpectSameSites(ComputeFacebookSites(result, server), want);
  }
}

}  // namespace
}  // namespace clouddns::analysis
