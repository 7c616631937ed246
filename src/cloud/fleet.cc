#include "cloud/fleet.h"

#include <algorithm>
#include <cmath>

namespace clouddns::cloud {
namespace {

constexpr double kMinHostsPerEngine = 2;

std::string DashedV4(const net::Ipv4Address& addr) {
  std::string text = addr.ToString();
  for (char& c : text) {
    if (c == '.') c = '-';
  }
  return text;
}

/// Deterministically assigns one EDNS size to each engine so that the
/// engine-weight-weighted size distribution matches the profile's target
/// fractions (smallest sizes are packed onto the lightest engines first,
/// except pinned engines).
std::vector<std::uint16_t> AssignEdnsSizes(
    const std::vector<std::pair<std::uint16_t, double>>& sizes,
    const std::vector<double>& weights, int pinned_engine,
    std::uint16_t pinned_size) {
  const std::size_t n = weights.size();
  double total = 0;
  for (double w : weights) total += w;

  // Engines by ascending weight, skipping the pinned one.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) != pinned_engine) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&weights](std::size_t a, std::size_t b) {
    return weights[a] < weights[b];
  });

  // Sizes ascending by value; the largest size takes the remainder.
  auto sorted_sizes = sizes;
  std::sort(sorted_sizes.begin(), sorted_sizes.end());

  std::vector<std::uint16_t> assignment(n, sorted_sizes.back().first);
  if (pinned_engine >= 0) {
    assignment[static_cast<std::size_t>(pinned_engine)] = pinned_size;
  }
  std::size_t cursor = 0;
  for (std::size_t s = 0; s + 1 < sorted_sizes.size(); ++s) {
    double want = sorted_sizes[s].second * total;
    double got = 0;
    while (cursor < order.size() && got < want) {
      // Stop before an engine whose weight would overshoot the target by
      // more than stopping short would undershoot it.
      double w = weights[order[cursor]];
      if (got + w - want > want - got) break;
      assignment[order[cursor]] = sorted_sizes[s].first;
      got += w;
      ++cursor;
    }
  }
  return assignment;
}

/// Mints the h-th host address inside a block list, never repeating for
/// distinct indices (within the block capacity).
net::IpAddress MintAddress(const std::vector<net::Prefix>& blocks,
                           std::uint64_t index) {
  const net::Prefix& block = blocks[index % blocks.size()];
  // +1 skips the network address; hosts within a block are sequential,
  // which is how real farms look in practice.
  return net::HostInPrefix(block, 1 + index / blocks.size());
}

resolver::ResolverConfig BaseEngineConfig(const ProviderProfile& profile,
                                          sim::Rng& rng) {
  resolver::ResolverConfig config;
  config.validate_dnssec = profile.validate_dnssec;
  config.aggressive_nsec_caching = profile.aggressive_nsec;
  config.explicit_ds_fetch = profile.explicit_ds;
  config.v6_weight_multiplier = profile.v6_bias;
  config.seed = rng.Next();
  config.max_cache_entries = 1u << 18;
  return config;
}

void MintHosts(resolver::ResolverConfig& config, const ProviderNetwork& network,
               const ProviderProfile& profile, std::size_t count,
               const std::vector<sim::SiteId>& sites, std::uint64_t& v4_counter,
               std::uint64_t& v6_counter, sim::Rng& rng, bool public_blocks) {
  auto is_public_block = [&network](const net::Prefix& p) {
    for (const auto& pub : network.public_dns_blocks) {
      if (pub.Contains(p) || p.Contains(pub)) return true;
    }
    return false;
  };
  // Public block lists mix families; split them. Non-public engines must
  // avoid the advertised public ranges or the Table 4 split would blur.
  std::vector<net::Prefix> v4s, v6s;
  if (public_blocks) {
    for (const auto& p : network.public_dns_blocks) {
      (p.is_v4() ? v4s : v6s).push_back(p);
    }
  } else {
    for (const auto& p : network.v4_blocks) {
      if (!is_public_block(p)) v4s.push_back(p);
    }
  }
  if (v6s.empty()) {
    for (const auto& p : network.v6_blocks) {
      if (public_blocks || !is_public_block(p)) v6s.push_back(p);
    }
  }
  for (std::size_t h = 0; h < count; ++h) {
    resolver::EgressHost host;
    host.v4 = MintAddress(v4s, v4_counter++);
    if (!v6s.empty() && rng.Bernoulli(profile.dual_stack_fraction)) {
      host.v6 = MintAddress(v6s, v6_counter++);
    }
    // Cloud farms egress from many metros per backend; spreading the
    // frontends smooths the fleet's anycast catchment, so which root
    // letter / ccTLD NS captures it is a weighted mix rather than an
    // all-or-nothing accident of one city.
    host.site = sites[h % sites.size()];
    config.hosts.push_back(std::move(host));
  }
}

void AddGenericPtrs(Fleet& fleet, const resolver::ResolverConfig& config,
                    std::string_view label, std::size_t engine_index) {
  std::size_t h = 0;
  for (const auto& host : config.hosts) {
    std::string name = "resolver" + std::to_string(h++) + "-e" +
                       std::to_string(engine_index) + "." +
                       std::string(label) + ".example";
    auto parsed = dns::Name::Parse(name);
    if (host.v4) fleet.ptr_records.emplace_back(*host.v4, *parsed);
    if (host.v6) fleet.ptr_records.emplace_back(*host.v6, *parsed);
  }
}

Fleet BuildFacebookFleet(const ProviderProfile& profile,
                         FleetBuildContext& ctx) {
  Fleet fleet;
  fleet.provider = Provider::kFacebook;
  fleet.junk_fraction = profile.junk_fraction;
  fleet.client_weight = profile.client_weight;
  sim::Rng rng(ctx.seed ^ 0xfacebull);

  const auto& codes = FacebookSiteCodes();
  // Location 1 dominates (Fig. 5a); tail sites fall off geometrically.
  std::vector<double> weights = {0.40, 0.09, 0.08, 0.07,  0.06, 0.055, 0.05,
                                 0.045, 0.04, 0.04, 0.035, 0.03, 0.025};
  // Location 1 sends no TCP: pin its EDNS to 4096 so nothing truncates.
  auto edns = AssignEdnsSizes(profile.edns_sizes, weights, /*pinned=*/0,
                              /*pinned_size=*/4096);

  const auto& network = NetworkOf(Provider::kFacebook);
  std::uint64_t v4_counter = 0, v6_counter = 0;
  std::size_t hosts = std::max<std::size_t>(
      static_cast<std::size_t>(kMinHostsPerEngine),
      static_cast<std::size_t>(
          static_cast<double>(profile.hosts_per_engine) * ctx.fleet_scale));

  for (std::size_t e = 0; e < codes.size(); ++e) {
    // Each site is its own latency point. Locations 8-10 (indices 7..9)
    // have materially worse IPv6 paths — the Fig. 5b correlation.
    sim::SiteSpec site;
    site.label = codes[e];
    site.x = 15.0 + 12.0 * static_cast<double>(e % 5);
    site.y = 10.0 * static_cast<double>(e % 4);
    site.access_delay_ms = 1.0;
    site.v6_penalty_ms = (e >= 7 && e <= 9) ? 32.0 : 0.0;
    sim::SiteId site_id = ctx.latency->AddSite(site);

    resolver::ResolverConfig config = BaseEngineConfig(profile, rng);
    config.edns_udp_size = edns[e];
    config.qname_minimization = profile.qname_minimization;
    config.qmin_enabled_at = profile.qmin_enabled_at;
    MintHosts(config, network, profile, hosts, {site_id}, v4_counter,
              v6_counter, rng, /*public_blocks=*/false);

    // PTR records: one name per host, shared by its v4 and v6 addresses,
    // so a host seen from both families matches as dual-stack. The name is
    // the host's dashed IPv4 under the site's airport code, except at the
    // last site, where it is a per-site host index ("edge-dns-r<h>"). That
    // still matches across families, so Fig. 5 counts dual-stack hosts
    // there too.
    std::size_t h = 0;
    for (const auto& host : config.hosts) {
      std::string label =
          e == codes.size() - 1
              ? "edge-dns-r" + std::to_string(h)
              : "edge-dns-" + DashedV4(host.v4->v4());
      auto name = dns::Name::Parse(label + "." + codes[e] + ".tfbnw.example");
      // Quirk from §4.3: a handful of addresses had no PTR at all.
      bool skip_v4 = e == 3 && h == 0;
      bool skip_v6 = (e == 5 || e == 6) && h == 0;
      if (host.v4 && !skip_v4) fleet.ptr_records.emplace_back(*host.v4, *name);
      if (host.v6 && !skip_v6) fleet.ptr_records.emplace_back(*host.v6, *name);
      ++h;
    }

    fleet.engine_configs.push_back(std::move(config));
    fleet.engine_weights.push_back(weights[e]);
    fleet.engine_is_public.push_back(false);
  }
  return fleet;
}

}  // namespace

const std::vector<std::string>& FacebookSiteCodes() {
  static const std::vector<std::string> codes = {
      "atn", "ash", "dfw", "fra", "lhr", "ams", "sin",
      "hkg", "nrt", "syd", "gru", "ord", "sjc"};
  return codes;
}

std::size_t Fleet::host_count() const {
  std::size_t count = 0;
  for (const auto& config : engine_configs) count += config.hosts.size();
  return count;
}

Fleet BuildProviderFleet(const ProviderProfile& profile,
                         FleetBuildContext& ctx) {
  if (profile.provider == Provider::kFacebook) {
    return BuildFacebookFleet(profile, ctx);
  }

  Fleet fleet;
  fleet.provider = profile.provider;
  fleet.junk_fraction = profile.junk_fraction;
  fleet.client_weight = profile.client_weight;
  sim::Rng rng(ctx.seed ^ (0x1000ull + static_cast<std::uint64_t>(
                                           profile.provider)));

  const auto& network = NetworkOf(profile.provider);
  const bool is_google = profile.provider == Provider::kGoogle;

  // Google is split into the Public DNS service and "the rest of its
  // infrastructure" (Table 4): the public side is ~15.6% of source
  // addresses but ~86.5% of queries, and is the part that validates and
  // deployed q-min.
  const std::size_t public_engines = is_google ? 5 : 0;
  constexpr double kPublicQueryShare = 0.91;  // calibrated: yields ~86.5% of
                                              // *captured* queries (Table 4)
  constexpr double kPublicResolverShare = 0.156;

  std::size_t total_hosts = std::max<std::size_t>(
      profile.engines * 2,
      static_cast<std::size_t>(static_cast<double>(profile.hosts_per_engine *
                                                   profile.engines) *
                               ctx.fleet_scale));

  std::vector<double> weights;
  for (std::size_t e = 0; e < profile.engines; ++e) {
    bool is_public = e < public_engines;
    if (is_google) {
      weights.push_back(is_public
                            ? kPublicQueryShare / static_cast<double>(
                                                      public_engines)
                            : (1.0 - kPublicQueryShare) /
                                  static_cast<double>(profile.engines -
                                                      public_engines));
    } else {
      weights.push_back(1.0);
    }
  }
  auto edns = AssignEdnsSizes(profile.edns_sizes, weights, -1, 0);

  std::uint64_t v4_counter = 0, v6_counter = 0;
  std::uint64_t public_v4_counter = 0, public_v6_counter = 0;
  std::size_t qmin_engines = static_cast<std::size_t>(
      std::ceil(profile.qmin_engine_fraction *
                static_cast<double>(profile.engines)));

  for (std::size_t e = 0; e < profile.engines; ++e) {
    bool is_public = e < public_engines;
    resolver::ResolverConfig config = BaseEngineConfig(profile, rng);
    config.edns_udp_size = edns[e];
    if (is_google) {
      // The public service validates and minimizes; the internal
      // infrastructure does neither (its DS share is what dilutes
      // Google's DNSSEC signal in Fig. 2).
      config.validate_dnssec = is_public;
      config.qname_minimization = is_public && profile.qname_minimization;
      config.qmin_enabled_at = profile.qmin_enabled_at;
    } else {
      config.qname_minimization =
          profile.qname_minimization && e < qmin_engines;
      config.qmin_enabled_at = profile.qmin_enabled_at;
    }

    // Spread engines around the globe (stride keeps consecutive engines
    // apart); geographic clustering would bias which authoritative NSes
    // (and therefore which *captured* NSes) a fleet lands on.
    // Each backend egresses from a handful of metros spread by stride.
    std::vector<sim::SiteId> engine_sites;
    for (std::size_t k = 0; k < 5; ++k) {
      engine_sites.push_back(
          ctx.resolver_sites[(e * 5 + k * 3 + 1) % ctx.resolver_sites.size()]);
    }
    std::size_t hosts;
    if (is_google) {
      std::size_t public_hosts = std::max<std::size_t>(
          2, static_cast<std::size_t>(kPublicResolverShare *
                                      static_cast<double>(total_hosts)));
      hosts = is_public
                  ? std::max<std::size_t>(2, public_hosts / public_engines)
                  : std::max<std::size_t>(
                        2, (total_hosts - public_hosts) /
                               (profile.engines - public_engines));
    } else {
      hosts = std::max<std::size_t>(2, total_hosts / profile.engines);
    }
    MintHosts(config, network, profile, hosts, engine_sites,
              is_public ? public_v4_counter : v4_counter,
              is_public ? public_v6_counter : v6_counter, rng, is_public);

    AddGenericPtrs(fleet, config,
                   is_public ? "public-dns.google"
                             : std::string(ToString(profile.provider)),
                   e);
    fleet.engine_configs.push_back(std::move(config));
    fleet.engine_weights.push_back(weights[e]);
    fleet.engine_is_public.push_back(is_public);
  }
  return fleet;
}

Fleet BuildOtherFleet(int year, std::size_t as_count, net::AsDatabase& asdb,
                      FleetBuildContext& ctx) {
  Fleet fleet;
  fleet.provider = Provider::kOther;
  ProviderProfile base = ProfileFor(Provider::kOther, year);
  fleet.junk_fraction = base.junk_fraction;
  fleet.client_weight = base.client_weight;
  sim::Rng rng(ctx.seed ^ 0x07e4ull);

  const int yi = year - 2018;
  const double validate_p = 0.15 + 0.05 * yi;
  const double qmin_p = 0.08 + 0.15 * yi;

  for (std::size_t i = 0; i < as_count; ++i) {
    net::Asn asn = 100000 + static_cast<net::Asn>(i);
    asdb.AddAs(asn, "ISP-" + std::to_string(i));
    net::Prefix v4_block(
        net::Ipv4Address(37, static_cast<std::uint8_t>(i / 256),
                         static_cast<std::uint8_t>(i % 256), 0),
        24);
    net::Ipv6Address::Bytes v6_bytes{};
    v6_bytes[0] = 0x2a;
    v6_bytes[1] = 0x00;
    v6_bytes[2] = static_cast<std::uint8_t>(i >> 8);
    v6_bytes[3] = static_cast<std::uint8_t>(i);
    net::Prefix v6_block(net::Ipv6Address(v6_bytes), 32);
    asdb.Announce(v4_block, asn);
    asdb.Announce(v6_block, asn);

    resolver::ResolverConfig config;
    config.validate_dnssec = rng.Bernoulli(validate_p);
    config.explicit_ds_fetch = config.validate_dnssec && rng.Bernoulli(0.3);
    // RFC 8198 adoption among validating ISP resolvers grows slowly.
    config.aggressive_nsec_caching =
        config.validate_dnssec && rng.Bernoulli(0.04 + 0.07 * yi);
    config.qname_minimization = !ctx.qmin_off && rng.Bernoulli(qmin_p);
    config.seed = rng.Next();
    config.max_cache_entries = 1u << 14;
    // EDNS: mixed deployment; a tail still runs EDNS-less stub-era code.
    double roll = rng.NextDouble();
    if (roll < 0.05) {
      config.edns_udp_size = 0;
    } else if (roll < 0.17) {
      config.edns_udp_size = 512;
    } else if (roll < 0.45) {
      config.edns_udp_size = 1232;
    } else {
      config.edns_udp_size = 4096;
    }

    // Heavy-tailed population: most ASes run a couple of resolvers; the
    // biggest ISPs run hundreds.
    double u = rng.NextDouble() + 1e-9;
    std::size_t hosts = 1 + std::min<std::size_t>(
                                260, static_cast<std::size_t>(
                                         2.5 / std::pow(u, 0.72)) -
                                         2);
    sim::SiteId site = ctx.resolver_sites[static_cast<std::size_t>(
        rng.NextBelow(ctx.resolver_sites.size()))];
    double dual_fraction = base.dual_stack_fraction;
    for (std::size_t h = 0; h < hosts; ++h) {
      resolver::EgressHost host;
      host.v4 = net::HostInPrefix(v4_block, 1 + h);
      if (rng.Bernoulli(dual_fraction)) {
        host.v6 = net::HostInPrefix(v6_block, 1 + h);
      }
      host.site = site;
      config.hosts.push_back(std::move(host));
    }
    AddGenericPtrs(fleet, config, "isp" + std::to_string(i), i);

    fleet.engine_configs.push_back(std::move(config));
    // Zipf-ish client load so a few ISPs dominate, as the paper observes
    // at B-Root (Indian/French/Indonesian ISPs above the first CP).
    fleet.engine_weights.push_back(
        1.0 / std::pow(static_cast<double>(i + 1), 0.85));
    fleet.engine_is_public.push_back(false);
    fleet.engine_asns.push_back(asn);
  }
  return fleet;
}

}  // namespace clouddns::cloud
