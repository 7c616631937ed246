#include "cloud/fleet.h"

#include <gtest/gtest.h>

#include "cloud/scenario.h"

namespace clouddns::cloud {
namespace {

struct FleetFixture {
  FleetFixture() {
    for (int i = 0; i < 6; ++i) {
      sites.push_back(latency.AddSite(
          {"S" + std::to_string(i), 10.0 * i, 0, 1.0, 0.0}));
    }
    ctx.latency = &latency;
    ctx.resolver_sites = sites;
    ctx.fleet_scale = 0.01;
    ctx.seed = 7;
  }

  sim::LatencyModel latency;
  std::vector<sim::SiteId> sites;
  FleetBuildContext ctx;
};

TEST(FleetTest, GoogleFleetSplitsPublicAndRest) {
  FleetFixture f;
  Fleet fleet = BuildProviderFleet(ProfileFor(Provider::kGoogle, 2020), f.ctx);
  ASSERT_EQ(fleet.engine_configs.size(), 10u);

  double public_weight = 0, total_weight = 0;
  int public_engines = 0;
  for (std::size_t e = 0; e < fleet.engine_configs.size(); ++e) {
    total_weight += fleet.engine_weights[e];
    if (fleet.engine_is_public[e]) {
      public_weight += fleet.engine_weights[e];
      ++public_engines;
      // The public service validates and minimizes...
      EXPECT_TRUE(fleet.engine_configs[e].validate_dnssec);
      EXPECT_TRUE(fleet.engine_configs[e].qname_minimization);
    } else {
      // ...the rest of the infrastructure does neither.
      EXPECT_FALSE(fleet.engine_configs[e].validate_dnssec);
      EXPECT_FALSE(fleet.engine_configs[e].qname_minimization);
    }
  }
  EXPECT_EQ(public_engines, 5);
  EXPECT_NEAR(public_weight / total_weight, 0.91, 0.001);  // Table 4 target
  // (0.91 of client load yields ~86.5% of *captured* queries; the public
  // engines' big shared caches absorb proportionally more).
}

TEST(FleetTest, GooglePublicHostsLiveInAdvertisedRanges) {
  FleetFixture f;
  Fleet fleet = BuildProviderFleet(ProfileFor(Provider::kGoogle, 2020), f.ctx);
  const auto& network_info = NetworkOf(Provider::kGoogle);
  auto in_public = [&network_info](const net::IpAddress& address) {
    for (const auto& block : network_info.public_dns_blocks) {
      if (block.Contains(address)) return true;
    }
    return false;
  };
  for (std::size_t e = 0; e < fleet.engine_configs.size(); ++e) {
    for (const auto& host : fleet.engine_configs[e].hosts) {
      if (host.v4) {
        EXPECT_EQ(in_public(*host.v4), fleet.engine_is_public[e])
            << host.v4->ToString();
      }
    }
  }
}

TEST(FleetTest, FacebookHasThirteenSitesWithAirportPtrs) {
  FleetFixture f;
  Fleet fleet =
      BuildProviderFleet(ProfileFor(Provider::kFacebook, 2020), f.ctx);
  EXPECT_EQ(fleet.engine_configs.size(), 13u);
  EXPECT_EQ(FacebookSiteCodes().size(), 13u);

  // Every host is dual-stack; most PTR names embed the v4 address.
  int embedded = 0, total_names = 0;
  for (const auto& [address, name] : fleet.ptr_records) {
    ++total_names;
    embedded += name.Label(0).find("edge-dns-") == 0 &&
                name.Label(0).find("r") != 9;  // "edge-dns-r<h>" = no embed
  }
  EXPECT_GT(total_names, 0);
  EXPECT_GT(embedded, total_names / 2);

  // The dominant engine (Location 1) must be pinned to EDNS 4096.
  EXPECT_EQ(fleet.engine_configs[0].edns_udp_size, 4096);
  double w0 = fleet.engine_weights[0];
  for (double w : fleet.engine_weights) EXPECT_LE(w, w0);
}

TEST(FleetTest, FacebookDualStackPtrNamesMatchAcrossFamilies) {
  FleetFixture f;
  Fleet fleet =
      BuildProviderFleet(ProfileFor(Provider::kFacebook, 2020), f.ctx);
  // Group PTR records by name: dual-stack hosts appear once per family.
  std::map<std::string, std::pair<int, int>> by_name;  // v4 count, v6 count
  for (const auto& [address, name] : fleet.ptr_records) {
    auto& entry = by_name[name.ToKey()];
    (address.is_v4() ? entry.first : entry.second)++;
  }
  int dual = 0;
  for (const auto& [name, counts] : by_name) {
    dual += counts.first == 1 && counts.second == 1;
  }
  EXPECT_GT(dual, 10);
}

TEST(FleetTest, MicrosoftFleetIsEffectivelyV4) {
  FleetFixture f;
  Fleet fleet =
      BuildProviderFleet(ProfileFor(Provider::kMicrosoft, 2020), f.ctx);
  std::size_t v6_hosts = 0, hosts = 0;
  for (const auto& config : fleet.engine_configs) {
    EXPECT_FALSE(config.validate_dnssec);
    for (const auto& host : config.hosts) {
      ++hosts;
      v6_hosts += host.v6.has_value();
    }
  }
  EXPECT_LT(static_cast<double>(v6_hosts) / static_cast<double>(hosts), 0.15);
}

TEST(FleetTest, CloudflareUsesExplicitDsProbing) {
  FleetFixture f;
  Fleet cloudflare =
      BuildProviderFleet(ProfileFor(Provider::kCloudflare, 2020), f.ctx);
  for (const auto& config : cloudflare.engine_configs) {
    EXPECT_TRUE(config.explicit_ds_fetch);
    EXPECT_TRUE(config.qname_minimization);
  }
  Fleet google = BuildProviderFleet(ProfileFor(Provider::kGoogle, 2020), f.ctx);
  for (const auto& config : google.engine_configs) {
    EXPECT_FALSE(config.explicit_ds_fetch);
  }
}

TEST(FleetTest, OtherFleetAnnouncesOneAsPerEngine) {
  FleetFixture f;
  net::AsDatabase asdb;
  Fleet fleet = BuildOtherFleet(2020, 50, asdb, f.ctx);
  EXPECT_EQ(fleet.engine_configs.size(), 50u);
  EXPECT_EQ(fleet.engine_asns.size(), 50u);
  EXPECT_EQ(asdb.as_count(), 50u);
  // Every engine's hosts route back to its own AS.
  for (std::size_t e = 0; e < fleet.engine_configs.size(); ++e) {
    for (const auto& host : fleet.engine_configs[e].hosts) {
      if (host.v4) {
        EXPECT_EQ(asdb.OriginAs(*host.v4), fleet.engine_asns[e]);
      }
      if (host.v6) {
        EXPECT_EQ(asdb.OriginAs(*host.v6), fleet.engine_asns[e]);
      }
    }
  }
}

TEST(FleetTest, OtherFleetLoadIsHeavyTailed) {
  FleetFixture f;
  net::AsDatabase asdb;
  Fleet fleet = BuildOtherFleet(2020, 100, asdb, f.ctx);
  EXPECT_GT(fleet.engine_weights.front(), fleet.engine_weights.back() * 10);
}

TEST(FleetTest, QminOffOverrideReachesEveryEngine) {
  FleetFixture f;
  f.ctx.qmin_off = true;
  net::AsDatabase asdb;
  Fleet fleet = BuildOtherFleet(2020, 80, asdb, f.ctx);
  for (const auto& config : fleet.engine_configs) {
    EXPECT_FALSE(config.qname_minimization);
  }
}

TEST(FleetTest, HostCountScalesWithFleetScale) {
  FleetFixture f;
  Fleet small = BuildProviderFleet(ProfileFor(Provider::kAmazon, 2020), f.ctx);
  f.ctx.fleet_scale = 0.02;
  Fleet large = BuildProviderFleet(ProfileFor(Provider::kAmazon, 2020), f.ctx);
  EXPECT_GT(large.host_count(), small.host_count() * 3 / 2);
}

}  // namespace
}  // namespace clouddns::cloud
