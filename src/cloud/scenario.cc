#include "cloud/scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "base/phase.h"
#include "base/threads.h"
#include "capture/merge.h"
#include "cloud/fleet.h"
#include "sim/diurnal.h"
#include "cloud/workload.h"
#include "server/auth_server.h"
#include "server/leaf_auth.h"
#include "sim/network.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::cloud {
namespace {

dns::Name N(const std::string& text) { return *dns::Name::Parse(text); }

/// World cities for the latency plane (coordinates in the abstract
/// millisecond plane; distances approximate great-circle delay ratios).
struct City {
  const char* label;
  double x, y;
};
constexpr City kCities[] = {
    {"AMS", 0, 0},    {"FRA", 4, 3},    {"LHR", -4, 1},  {"CDG", -1, 4},
    {"IAD", -42, 8},  {"ORD", -50, 4},  {"SJC", -70, 9}, {"GRU", -48, 52},
    {"JNB", 18, 58},  {"BOM", 42, 28},  {"SIN", 60, 34}, {"HKG", 66, 24},
    {"NRT", 78, 12},  {"SYD", 88, 46},  {"AKL", 98, 52}, {"WLG", 99, 55},
};

sim::TimeUs DayStart(int year, unsigned month, unsigned day) {
  return sim::TimeFromCivil({year, month, day});
}

/// The Fig. 3b .nz cyclic-dependency event window (Feb 3-27 2020); used by
/// both the workload injection and the kNzEventLoss fault preset.
sim::TimeUs NzEventStart() { return DayStart(2020, 2, 3); }
sim::TimeUs NzEventEnd() { return DayStart(2020, 2, 27); }

/// Blueprint of one authoritative service: its config, the zones it
/// serves, and where it is anycast. Every shard instantiates its own
/// AuthServer from this, so mutable server state (RRL buckets, capture
/// buffer) stays shard-local while the zone data is shared read-only.
struct ServiceSpec {
  server::AuthServerConfig config;
  std::vector<std::shared_ptr<const zone::Zone>> zones;
  std::vector<std::pair<net::IpAddress, sim::SiteId>> registrations;
  ServerMeta meta;
};

/// Everything one simulation shard mutates. Shards never touch each
/// other's state, so the schedule loop runs lock-free.
struct ShardWorld {
  std::unique_ptr<sim::Network> network;
  std::vector<std::unique_ptr<server::AuthServer>> servers;
  std::unique_ptr<server::LeafAuthService> leaf;
  /// One generator per fleet, seeded from SubstreamSeed(seed, shard).
  std::vector<std::unique_ptr<WorkloadGenerator>> workloads;
  capture::CaptureBuffer records;
  std::uint64_t issued = 0;
  std::vector<std::uint64_t> issued_per_fleet;
};

/// Everything a scenario builds; kept alive for the duration of Run().
class ScenarioRuntime {
 public:
  explicit ScenarioRuntime(const ScenarioConfig& config);
  ScenarioResult Run();

 private:
  void BuildSites();
  void MaterializeFaults();
  void BuildZonesAndServers();
  void BuildShardWorlds();
  void BuildFleets();
  void PartitionEngines();
  void RunShard(std::size_t shard);

  zone::Zone BuildRootZone();

  ScenarioConfig config_;
  sim::TimeUs start_ = 0;
  sim::TimeUs end_ = 0;
  std::size_t shard_count_ = 1;

  sim::LatencyModel latency_;
  std::vector<sim::SiteId> city_sites_;

  std::vector<std::shared_ptr<const zone::Zone>> zones_;
  std::vector<ServiceSpec> service_specs_;

  net::AsDatabase asdb_;
  net::PrefixMap<bool> google_public_;

  std::vector<Fleet> fleets_;
  std::vector<WorkloadSpec> fleet_specs_;
  std::vector<double> fleet_weights_;
  /// engine_owner_[fleet][engine] -> shard that executes its queries.
  std::vector<std::vector<std::size_t>> engine_owner_;

  std::vector<ShardWorld> shards_;

  /// Materialized fault schedule and its injector. The injector is
  /// stateless/const after construction, so all shards share one instance;
  /// decisions key on (site, transport, time, source), never on shard.
  sim::FaultPlan fault_plan_;
  std::unique_ptr<sim::FaultInjector> injector_;

  std::size_t zone_domain_count_ = 0;
  std::map<std::string, std::size_t> zone_domains_by_tld_;
  std::vector<net::IpAddress> root_v4_, root_v6_;
  std::map<std::string, std::vector<zone::NameserverSpec>> tld_ns_sets_;

  // Fig. 3b cyclic event: the two broken .nz domains.
  std::vector<dns::Name> cyclic_domains_;
};

ScenarioRuntime::ScenarioRuntime(const ScenarioConfig& config)
    : config_(config) {
  start_ = config_.window_start.value_or(
      WeekStart(config_.vantage, config_.year));
  end_ = config_.window_end.value_or(start_ + WindowLength(config_.vantage));
  shard_count_ = std::max<std::size_t>(1, config_.shards);
}

void ScenarioRuntime::BuildSites() {
  for (const City& city : kCities) {
    city_sites_.push_back(
        latency_.AddSite({city.label, city.x, city.y, 1.0, 0.0}));
  }
}

void ScenarioRuntime::MaterializeFaults() {
  fault_plan_ = config_.faults;
  const sim::FaultWindow whole{start_, end_};
  switch (config_.fault_preset) {
    case FaultPreset::kNone:
      break;
    case FaultPreset::kProviderSiteOutage: {
      // Withdraw the four busiest (first) sites for the middle third of
      // the window; anycast re-routes their catchments elsewhere.
      const sim::TimeUs third = (end_ - start_) / 3;
      const sim::FaultWindow middle{start_ + third, end_ - third};
      for (std::size_t s = 0; s < 4 && s < city_sites_.size(); ++s) {
        fault_plan_.outages.push_back({city_sites_[s], middle});
      }
      break;
    }
    case FaultPreset::kLossyPath: {
      sim::LossRule rule;
      rule.transport = dns::Transport::kUdp;
      rule.window = whole;
      rule.query_loss = 0.25;
      rule.response_loss = 0.15;
      fault_plan_.loss.push_back(rule);
      break;
    }
    case FaultPreset::kRootBrownout: {
      sim::Brownout rule;
      rule.window = whole;
      rule.servfail_fraction = 0.5;
      rule.extra_rtt_us = 300'000;
      fault_plan_.brownouts.push_back(rule);
      break;
    }
    case FaultPreset::kNzEventLoss: {
      // Clamp the event weeks to the simulated window; outside them the
      // plane is healthy. The loss is response-heavy on purpose: queries
      // still reach (and are captured by) the servers, but the answers
      // die in transit, so every retransmit lands in the capture — the
      // traffic-creating failure mode behind the Fig. 3b spike.
      sim::LossRule rule;
      rule.transport = dns::Transport::kUdp;
      rule.window = {std::max(start_, NzEventStart()),
                     std::min(end_, NzEventEnd())};
      rule.query_loss = 0.05;
      rule.response_loss = 0.60;
      if (rule.window.start < rule.window.end) {
        fault_plan_.loss.push_back(rule);
      }
      break;
    }
  }
  if (!fault_plan_.empty()) {
    injector_ = std::make_unique<sim::FaultInjector>(
        fault_plan_, sim::SubstreamSeed(config_.seed, 0xfa17ull));
  }
}

/// Builds the (unsigned) root zone image; signing happens with the other
/// zones in BuildZonesAndServers' serial stage.
zone::Zone ScenarioRuntime::BuildRootZone() {
  zone::ZoneBuildConfig config;
  config.apex = dns::Name{};
  config.negative_ttl = 86400;  // the real root zone's SOA MINIMUM
  config.nameservers = {};
  for (std::size_t letter = 0; letter < root_v4_.size(); ++letter) {
    zone::NameserverSpec spec;
    spec.name = N(std::string(1, static_cast<char>('a' + letter)) +
                  ".root-servers.example");
    spec.addresses = {root_v4_[letter], root_v6_[letter]};
    config.nameservers.push_back(std::move(spec));
  }
  auto root = zone::MakeZoneSkeleton(config);

  // Delegate the ccTLDs with their *full* NS sets so resolvers spread
  // load over every authoritative server (the study captures two of
  // .nl's and six of .nz's).
  for (const auto& [tld, ns_set] : tld_ns_sets_) {
    zone::AddDelegation(root, N(tld), ns_set,
                        /*with_ds=*/true, /*ttl=*/172800);
  }

  // Generic TLDs for root-vantage workload breadth. Their nameservers live
  // in unregistered space, so the default-route leaf service answers for
  // them — the study never captures TLD-side traffic at those.
  if (config_.vantage == Vantage::kRoot) {
    for (int i = 0; i < 120; ++i) {
      std::string tld = "tld" + std::to_string(i);
      zone::AddDelegation(
          root, N(tld),
          {{N("ns1.nic." + tld),
            {net::IpAddress(net::Ipv4Address(
                 0x65400000u + static_cast<std::uint32_t>(i) * 8)),
             net::IpAddress(*net::Ipv6Address::Parse(
                 "2001:db9:" + std::to_string(i) + "::53"))}}},
          i % 2 == 0, /*ttl=*/172800);
    }
  }
  return root;
}

void ScenarioRuntime::BuildZonesAndServers() {
  const int year_index0 = config_.year - 2018;
  // ccTLD NS sets (Table 2) are needed up front: the root zone's
  // delegations carry them as glue.
  auto make_ns_set = [this](const std::string& tld, std::size_t ns_total,
                            const std::string& v4_stem,
                            const std::string& v6_stem) {
    std::vector<zone::NameserverSpec> ns_set;
    for (std::size_t s = 0; s < ns_total; ++s) {
      zone::NameserverSpec spec;
      spec.name = N("ns" + std::to_string(s + 1) + ".dns." + tld);
      spec.addresses = {
          *net::IpAddress::Parse(v4_stem + std::to_string(s + 1)),
          *net::IpAddress::Parse(v6_stem + std::to_string(s + 1))};
      ns_set.push_back(std::move(spec));
    }
    tld_ns_sets_[tld] = ns_set;
    return ns_set;
  };
  make_ns_set("nl", year_index0 == 2 ? 3 : 4, "194.0.28.", "2001:678:2c::");
  make_ns_set("nz", 7, "197.0.29.", "2001:dce:2c::");

  // --- Root service: 13 letters; letter B (index 1) is the captured
  // vantage for kRoot scenarios. Anycast footprint of B grows over the
  // years (§3: B-Root added sites between 2018 and 2020).
  const std::size_t letters = config_.vantage == Vantage::kRoot ? 13 : 2;
  for (std::size_t letter = 0; letter < letters; ++letter) {
    root_v4_.push_back(net::IpAddress(net::Ipv4Address(
        198, 41, static_cast<std::uint8_t>(letter), 4)));
    root_v6_.push_back(*net::IpAddress::Parse(
        "2001:500:" + std::to_string(letter + 1) + "::53"));
  }

  // --- Sizing for the ccTLD images (Table 2), needed before the parallel
  // build stage so every task is fully parameterized up front.
  const int yi = config_.year - 2018;
  const double zs = config_.zone_scale;
  const std::size_t nl_domains =
      static_cast<std::size_t>((yi == 2 ? 5.9e6 : 5.8e6) * zs);
  const std::size_t nl_ns = yi == 2 ? 3 : 4;  // Table 2
  const std::size_t nz_second = static_cast<std::size_t>(140e3 * zs);
  const std::size_t nz_third =
      static_cast<std::size_t>((yi == 0 ? 580e3 : 570e3) * zs);
  const std::vector<std::string> nz_subzones = {"co", "net", "org", "ac",
                                                "govt"};
  const std::size_t nz_per_subzone = nz_third / nz_subzones.size();

  // --- Stage A: build every zone image in parallel. The tasks are
  // independent — each writes only its own slot, reads only the
  // already-final ns sets / root hints — and each image's record sequence
  // is a pure function of its parameters, so the fan-out cannot change
  // any zone's bytes (DESIGN.md §14). Signing is deliberately NOT here:
  // one zone (the .nl apex) dominates that cost, so SignZone parallelizes
  // internally in the serial stage below instead.
  auto build_apex = [this](const std::string& tld, std::size_t second_level) {
    zone::ZoneBuildConfig apex_config;
    apex_config.apex = N(tld);
    apex_config.nameservers = tld_ns_sets_.at(tld);
    auto apex_zone = zone::MakeZoneSkeleton(apex_config);
    zone::PopulateDelegations(apex_zone, second_level, "dom", 0.55,
                              net::Ipv4Address(100, 70, 0, 0));
    if (tld == "nz") {
      // The Fig. 3b misconfiguration: two domains whose NS records point
      // into each other's zones with no glue — a cyclic dependency [31]
      // that resolvers can never break out of.
      zone::AddDelegation(apex_zone, N("cyca.nz"), {{N("ns.cycb.nz"), {}}},
                          false);
      zone::AddDelegation(apex_zone, N("cycb.nz"), {{N("ns.cyca.nz"), {}}},
                          false);
    }
    return apex_zone;
  };
  const std::size_t kRootSlot = 0;
  const std::size_t kNlApexSlot = 1;
  const std::size_t kNzApexSlot = 2;
  const std::size_t kNzSubBase = 3;
  std::vector<std::function<zone::Zone()>> builders(kNzSubBase +
                                                    nz_subzones.size());
  builders[kRootSlot] = [this] { return BuildRootZone(); };
  builders[kNlApexSlot] = [&build_apex, nl_domains] {
    return build_apex("nl", nl_domains);
  };
  builders[kNzApexSlot] = [&build_apex, nz_second] {
    return build_apex("nz", nz_second);
  };
  for (std::size_t sub = 0; sub < nz_subzones.size(); ++sub) {
    builders[kNzSubBase + sub] = [this, &nz_subzones, sub, nz_per_subzone] {
      zone::ZoneBuildConfig sub_config;
      sub_config.apex = N(nz_subzones[sub] + ".nz");
      sub_config.nameservers = tld_ns_sets_.at("nz");
      auto sub_zone = zone::MakeZoneSkeleton(sub_config);
      // Glue base 100.72.0.0 + one /16 per subzone, matching the serial
      // builder's running increment.
      zone::PopulateDelegations(
          sub_zone, nz_per_subzone, "dom", 0.55,
          net::Ipv4Address(0x64480000u +
                           static_cast<std::uint32_t>(sub) * 0x10000u));
      return sub_zone;
    };
  }
  std::vector<std::optional<zone::Zone>> images(builders.size());
  base::ThreadPool::Shared().ParallelFor(
      builders.size(), base::EffectiveThreads(config_.threads),
      [&](std::size_t i) { images[i].emplace(builders[i]()); });

  // --- Stage B: serial signing and assembly, in the exact order of the
  // serial builder — zones_/service_specs_ ordering and every zone's Add
  // sequence (skeleton, delegations, DNSKEYs, RRSIGs) are unchanged.
  // SignZone fans its signature computation over the pool internally.
  zone::Zone root = std::move(*images[kRootSlot]);
  zone::SignZone(root);
  auto root_zone = std::make_shared<const zone::Zone>(std::move(root));
  zones_.push_back(root_zone);

  for (std::size_t letter = 0; letter < letters; ++letter) {
    ServiceSpec spec;
    spec.config.server_id = 100 + static_cast<std::uint32_t>(letter);
    spec.config.name =
        std::string(1, static_cast<char>('a' + letter)) + "-root";
    bool captured = config_.vantage == Vantage::kRoot && letter == 1;
    spec.config.capture_enabled = captured;
    spec.zones = {root_zone};

    // Root letters are heavily anycast; B grows its footprint over the
    // study years (§3), which widens its catchment relative to peers.
    std::size_t site_count = letter == 1 ? (yi == 0 ? 4u : (yi == 1 ? 6u : 9u))
                                         : 6u;
    for (std::size_t s = 0; s < site_count; ++s) {
      sim::SiteId site =
          city_sites_[(letter * 3 + s * 5) % city_sites_.size()];
      spec.registrations.emplace_back(root_v4_[letter], site);
      spec.registrations.emplace_back(root_v6_[letter], site);
    }
    spec.meta = {spec.config.server_id, spec.config.name, captured,
                 true, site_count};
    service_specs_.push_back(std::move(spec));
  }

  // --- ccTLD signing, assembly, and servers.
  auto assemble_cctld = [this](const std::string& tld, zone::Zone apex_zone,
                               std::vector<zone::Zone> sub_zones,
                               const std::vector<std::string>& subzones,
                               std::size_t second_level,
                               std::size_t per_subzone, std::size_t ns_total,
                               std::size_t ns_captured,
                               std::size_t unicast_index) {
    const std::vector<zone::NameserverSpec>& ns_set = tld_ns_sets_.at(tld);

    // Second-level registry zones (co.nz style) are delegated from the
    // apex and served by the same operator.
    std::vector<std::shared_ptr<const zone::Zone>> operator_zones;
    for (std::size_t sub = 0; sub < subzones.size(); ++sub) {
      zone::AddDelegation(apex_zone, N(subzones[sub] + "." + tld), ns_set,
                          /*with_ds=*/true);
      zone::SignZone(sub_zones[sub]);
      operator_zones.push_back(
          std::make_shared<const zone::Zone>(std::move(sub_zones[sub])));
      zone_domain_count_ += per_subzone;
      zone_domains_by_tld_[tld] += per_subzone;
    }
    zone_domain_count_ += second_level;
    zone_domains_by_tld_[tld] += second_level;
    zone::SignZone(apex_zone);
    operator_zones.insert(
        operator_zones.begin(),
        std::make_shared<const zone::Zone>(std::move(apex_zone)));
    for (const auto& zone : operator_zones) zones_.push_back(zone);

    bool vantage_match =
        (config_.vantage == Vantage::kNl && tld == "nl") ||
        (config_.vantage == Vantage::kNz && tld == "nz");
    for (std::size_t s = 0; s < ns_total; ++s) {
      ServiceSpec spec;
      spec.config.server_id = static_cast<std::uint32_t>(s);
      spec.config.name = tld + "-" +
                         std::string(1, static_cast<char>('A' + s));
      spec.config.capture_enabled = vantage_match && s < ns_captured;
      spec.config.rrl.enabled = !config_.rrl_override_off;
      spec.config.rrl.responses_per_second = 400;
      spec.config.rrl.burst = 1200;
      spec.zones = operator_zones;

      // The ccTLD NS sets are broadly anycast ("distributed across a
      // dozen global locations", 2.1.1); a wide footprint also keeps the
      // captured-subset sampling unbiased across resolver fleets.
      bool anycast = s != unicast_index;
      std::size_t site_count = anycast ? 11 : 1;
      for (std::size_t at = 0; at < site_count; ++at) {
        sim::SiteId site =
            city_sites_[(s * 7 + at * 3 + (tld == "nz" ? 13 : 0)) %
                        city_sites_.size()];
        spec.registrations.emplace_back(ns_set[s].addresses[0], site);
        spec.registrations.emplace_back(ns_set[s].addresses[1], site);
      }
      spec.meta = {spec.config.server_id, spec.config.name,
                   spec.config.capture_enabled, anycast, site_count};
      service_specs_.push_back(std::move(spec));
    }
  };

  // Both ccTLDs always exist (root-vantage clients also look them up);
  // only the vantage TLD captures.
  assemble_cctld("nl", std::move(*images[kNlApexSlot]), {}, {}, nl_domains,
                 0, nl_ns, 2, /*unicast=*/99);
  std::vector<zone::Zone> nz_subs;
  nz_subs.reserve(nz_subzones.size());
  for (std::size_t sub = 0; sub < nz_subzones.size(); ++sub) {
    nz_subs.push_back(std::move(*images[kNzSubBase + sub]));
  }
  // Table 2: 6 anycast + 1 unicast NSes; the analyzed six are five of
  // the anycast servers plus the unicast one.
  assemble_cctld("nz", std::move(*images[kNzApexSlot]), std::move(nz_subs),
                 nz_subzones, nz_second, nz_per_subzone, 7, 6, /*unicast=*/5);

  // Fig. 3b: two .nz domains with mutually glueless (cyclic) delegations.
  if (config_.inject_cyclic_event || config_.vantage == Vantage::kNz) {
    cyclic_domains_ = {N("cyca.nz"), N("cycb.nz")};
  }
}

void ScenarioRuntime::BuildShardWorlds() {
  shards_.resize(shard_count_);
  for (ShardWorld& shard : shards_) {
    shard.network = std::make_unique<sim::Network>(latency_);
    for (const ServiceSpec& spec : service_specs_) {
      auto server = std::make_unique<server::AuthServer>(spec.config);
      for (const auto& zone : spec.zones) server->Serve(zone);
      for (const auto& [address, site] : spec.registrations) {
        shard.network->RegisterServer(address, site, *server);
      }
      shard.servers.push_back(std::move(server));
    }
    shard.leaf =
        std::make_unique<server::LeafAuthService>(server::LeafAuthConfig{});
    shard.network->SetDefaultRoute(city_sites_[4], *shard.leaf);
    shard.network->SetFaultInjector(injector_.get());
  }
}

void ScenarioRuntime::BuildFleets() {
  RegisterProviderAses(asdb_);
  for (const auto& prefix : NetworkOf(Provider::kGoogle).public_dns_blocks) {
    google_public_.Insert(prefix, true);
  }

  FleetBuildContext ctx;
  ctx.latency = &latency_;
  // Engines are constructed against shard 0's network, then re-attached
  // to their owner shard's plane in PartitionEngines().
  ctx.network = shards_[0].network.get();
  // Root hints: the captured study uses the full 13-letter set.
  ctx.root_v4 = root_v4_;
  ctx.root_v6 = root_v6_;
  ctx.resolver_sites = city_sites_;
  ctx.fleet_scale = config_.fleet_scale;
  ctx.seed = config_.seed;
  ctx.qmin_off = config_.qmin_override_off;

  for (Provider provider : MeasuredProviders()) {
    ProviderProfile profile = ProfileFor(provider, config_.year);
    profile.client_weight *= config_.consolidation_factor;
    if (config_.qmin_override_off) profile.qname_minimization = false;
    // Google's market penetration differs between the countries (§4.1):
    // its .nz share is roughly 60% of its .nl share.
    if (provider == Provider::kGoogle && config_.vantage == Vantage::kNz) {
      profile.client_weight *= 0.55;
    }
    // §4.1: at the root the first CP ranks only 5th behind large ISPs —
    // B-Root's catchment covers regions where cloud penetration is lower.
    if (config_.vantage == Vantage::kRoot) {
      const int yi = config_.year - 2018;
      profile.client_weight *= yi == 0 ? 0.26 : (yi == 1 ? 0.48 : 1.70);
      // Google's public service reaches the widest population; by 2020 it
      // is the single largest cloud AS at the root (§4.1: rank 5 overall).
      if (provider == Provider::kGoogle) {
        profile.client_weight *= yi == 0 ? 1.0 : (yi == 1 ? 1.2 : 2.0);
      }
    }
    if (config_.google_only && provider != Provider::kGoogle) {
      profile.client_weight = 0;
    }
    fleets_.push_back(BuildProviderFleet(profile, ctx));
  }

  if (!config_.google_only) {
    std::size_t as_count = static_cast<std::size_t>(
        (config_.vantage == Vantage::kRoot ? 46000 : 39000) *
        config_.as_scale);
    fleets_.push_back(BuildOtherFleet(config_.year, as_count, asdb_, ctx));
  }

  // Per-vantage junk level calibrated against Table 3's valid ratios:
  // .nl stays ~86-90% valid; .nz is junkier (66-81% valid, §3); B-Root's
  // junk comes from the chromium fraction below instead.
  const int year_index = config_.year - 2018;
  double vantage_junk = 1.0;
  if (config_.vantage == Vantage::kNl) {
    vantage_junk = year_index == 0 ? 0.55 : (year_index == 1 ? 0.58 : 0.72);
  } else if (config_.vantage == Vantage::kNz) {
    vantage_junk = year_index == 0 ? 1.95 : (year_index == 1 ? 1.10 : 2.15);
  }
  for (Fleet& fleet : fleets_) {
    WorkloadSpec spec;
    spec.junk_fraction = std::min(0.9, fleet.junk_fraction * vantage_junk);
    if (config_.vantage == Vantage::kNl) {
      spec.suffixes = {{N("nl"),
                        static_cast<std::size_t>(
                            (config_.year == 2020 ? 5.9e6 : 5.8e6) *
                            config_.zone_scale),
                        1.0, "dom"}};
    } else if (config_.vantage == Vantage::kNz) {
      std::size_t second = static_cast<std::size_t>(140e3 * config_.zone_scale);
      std::size_t per_sub = static_cast<std::size_t>(
          (config_.year == 2018 ? 580e3 : 570e3) * config_.zone_scale / 5);
      spec.suffixes = {{N("nz"), second, 0.25, "dom"},
                       {N("co.nz"), per_sub, 0.45, "dom"},
                       {N("net.nz"), per_sub, 0.10, "dom"},
                       {N("org.nz"), per_sub, 0.10, "dom"},
                       {N("ac.nz"), per_sub, 0.06, "dom"},
                       {N("govt.nz"), per_sub, 0.04, "dom"}};
    } else {
      // Root vantage: interest spreads over many TLDs; the ccTLDs are a
      // small slice of the world.
      spec.suffixes = {{N("nl"), static_cast<std::size_t>(5.8e6 *
                                                          config_.zone_scale),
                        0.04, "dom"},
                       {N("nz"), static_cast<std::size_t>(140e3 *
                                                          config_.zone_scale),
                        0.01, "dom"}};
      for (int i = 0; i < 120; ++i) {
        spec.suffixes.push_back(
            {N("tld" + std::to_string(i)),
             static_cast<std::size_t>(40e3 * config_.zone_scale) + 20,
             1.0 / std::pow(i + 2.0, 0.8), "dom"});
      }
      // Chromium random-TLD probes ramp up across the study (§3). The
      // bulk of the browser population sits behind ISP resolvers; cloud
      // fleets mostly see machine-generated junk, per-provider scaled.
      const int yi = config_.year - 2018;
      double base_chromium = yi == 0 ? 0.38 : (yi == 1 ? 0.22 : 0.38);
      double multiplier =
          fleet.provider == Provider::kOther
              ? 1.0
              : ProfileFor(fleet.provider, config_.year).root_junk_multiplier;
      spec.chromium_fraction = base_chromium * multiplier;
    }
    fleet_specs_.push_back(std::move(spec));
    fleet_weights_.push_back(fleet.client_weight);
  }
}

void ScenarioRuntime::PartitionEngines() {
  // Round-robin over a global engine counter balances engine counts per
  // shard even when individual fleets are small. The owner map depends
  // only on the build (never on threads), so each engine's cache sees its
  // queries in the same order for every thread count.
  std::size_t counter = 0;
  engine_owner_.resize(fleets_.size());
  for (std::size_t f = 0; f < fleets_.size(); ++f) {
    engine_owner_[f].resize(fleets_[f].engines.size());
    for (std::size_t e = 0; e < fleets_[f].engines.size(); ++e) {
      std::size_t owner = counter++ % shard_count_;
      engine_owner_[f][e] = owner;
      fleets_[f].engines[e]->AttachNetwork(*shards_[owner].network);
    }
  }

  for (std::size_t s = 0; s < shard_count_; ++s) {
    ShardWorld& shard = shards_[s];
    shard.issued_per_fleet.assign(fleets_.size(), 0);
    for (std::size_t f = 0; f < fleet_specs_.size(); ++f) {
      shard.workloads.push_back(std::make_unique<WorkloadGenerator>(
          fleet_specs_[f],
          sim::SubstreamSeed(config_.seed ^ (0xabcdull + f), s)));
    }
  }
}

void ScenarioRuntime::RunShard(std::size_t shard_index) {
  ShardWorld& shard = shards_[shard_index];

  // Every shard replays the identical global schedule (times, fleet and
  // engine draws — cheap alias-table samples) and executes only the
  // queries whose engine it owns. The schedule RNG is consumed in exactly
  // the same order in every shard, so the realized traffic is one global
  // sequence partitioned by engine ownership — not N loosely-related
  // simulations — and is invariant to how shards map onto threads.
  sim::Rng rng(config_.seed ^ 0x10adull);
  sim::DiscreteSampler fleet_sampler(fleet_weights_);
  std::vector<sim::DiscreteSampler> engine_samplers;
  for (const Fleet& fleet : fleets_) {
    engine_samplers.emplace_back(fleet.engine_weights);
  }

  const sim::TimeUs window = end_ - start_;
  const std::uint64_t total = config_.client_queries;
  const std::uint64_t warmup = static_cast<std::uint64_t>(
      static_cast<double>(total) * config_.warmup_fraction);
  const sim::TimeUs warmup_span =
      std::min<sim::TimeUs>(sim::kMicrosPerDay, window);
  const sim::DiurnalWarp diurnal(start_, end_, config_.diurnal_amplitude);

  // The Fig. 3b event window (only meaningful for longitudinal .nz runs).
  const sim::TimeUs event_start = NzEventStart();
  const sim::TimeUs event_end = NzEventEnd();

  for (std::uint64_t i = 0; i < total + warmup; ++i) {
    // Warmup queries run in the day before the window; captured records
    // from that period are filtered out at harvest.
    sim::TimeUs t =
        i < warmup
            ? start_ - warmup_span + (warmup_span * i) / std::max<std::uint64_t>(warmup, 1)
            : diurnal.TimeOf(i - warmup, total) + rng.NextBelow(1000);
    std::size_t f = fleet_sampler.Sample(rng);
    std::size_t e = engine_samplers[f].Sample(rng);
    if (engine_owner_[f][e] != shard_index) continue;

    Fleet& fleet = fleets_[f];
    WorkloadGenerator& workload = *shard.workloads[f];
    if (config_.inject_cyclic_event && !cyclic_domains_.empty() &&
        fleet.provider == Provider::kGoogle) {
      if (t >= event_start && t < event_end) {
        workload.InjectTargets(cyclic_domains_, 0.14);
      } else {
        workload.ClearInjection();
      }
    }

    ClientQuery query = workload.Next();
    fleet.engines[e]->Resolve(query.qname, query.qtype, t);
    if (i >= warmup) {
      ++shard.issued;
      ++shard.issued_per_fleet[f];
    }
  }

  // Harvest this shard's captures into one time-ordered buffer; ties keep
  // service order, making the per-shard stream deterministic.
  for (std::size_t idx = 0; idx < shard.servers.size(); ++idx) {
    if (!service_specs_[idx].meta.captured) continue;
    capture::CaptureBuffer captured = shard.servers[idx]->TakeCaptured();
    for (auto& record : captured) {
      if (record.time_us >= start_) shard.records.push_back(std::move(record));
    }
  }
  capture::SortByTimeStable(shard.records);
}

ScenarioResult ScenarioRuntime::Run() {
  {
    // The whole construction pipeline is the "setup" phase that bench_e2e
    // reports as setup_s; the timer only observes, simulation state never
    // reads it.
    base::ScopedPhaseTimer setup_phase(base::Phase::kSetup);
    BuildSites();
    MaterializeFaults();
    BuildZonesAndServers();
    BuildShardWorlds();
    BuildFleets();
    PartitionEngines();
  }

  ScenarioResult result;
  result.config = config_;
  result.window_start = start_;
  result.window_end = end_;
  result.zone_domain_count = zone_domain_count_;
  result.zone_domains_by_tld = zone_domains_by_tld_;

  // Shards vary in cost (engine ownership is round-robin but per-engine
  // query mixes differ), so the pool's dynamic task draw beats a static
  // stride when shard_count >> threads. Output stays byte-identical
  // regardless of which worker runs which shard: RunShard(s) touches only
  // shards_[s], and downstream ordering goes by shard index, never by
  // completion.
  const std::size_t threads =
      std::min(shard_count_, base::EffectiveThreads(config_.threads));
  base::ThreadPool::Shared().ParallelFor(
      shard_count_, threads, [this](std::size_t s) { RunShard(s); });

  // Hand the per-shard streams to the result unmerged: each is already
  // time-ordered, and the (time, shard) contract fixes the flattened
  // order whenever a consumer asks for it.
  std::vector<capture::CaptureBuffer> shard_buffers;
  shard_buffers.reserve(shard_count_);
  for (ShardWorld& shard : shards_) {
    shard_buffers.push_back(std::move(shard.records));
  }
  result.records =
      capture::ShardedCapture::FromShards(std::move(shard_buffers));

  for (const ServiceSpec& spec : service_specs_) {
    result.servers.push_back(spec.meta);
  }
  for (ShardWorld& shard : shards_) {
    result.client_queries_issued += shard.issued;
    for (std::size_t f = 0; f < fleets_.size(); ++f) {
      if (shard.issued_per_fleet[f] == 0) continue;
      result.client_queries_per_provider[std::string(
          ToString(fleets_[f].provider))] += shard.issued_per_fleet[f];
    }
    result.leaf_queries += shard.leaf->handled();
  }

  for (Fleet& fleet : fleets_) {
    result.ptr_records.insert(result.ptr_records.end(),
                              fleet.ptr_records.begin(),
                              fleet.ptr_records.end());
    for (const auto& engine : fleet.engines) {
      result.robustness.upstream_queries += engine->upstream_query_count();
      result.robustness.retransmits += engine->retransmit_count();
      result.robustness.timeouts += engine->timeout_count();
      result.robustness.failovers += engine->failover_count();
      result.robustness.served_stale += engine->served_stale_count();
    }
  }
  result.asdb = std::move(asdb_);
  result.google_public = std::move(google_public_);
  return result;
}

}  // namespace

std::string_view ToString(Vantage vantage) {
  switch (vantage) {
    case Vantage::kNl: return ".nl";
    case Vantage::kNz: return ".nz";
    case Vantage::kRoot: return "B-Root";
  }
  return "?";
}

sim::TimeUs WeekStart(Vantage vantage, int year) {
  if (vantage == Vantage::kRoot) {
    // Table 3: DITL days.
    switch (year) {
      case 2018: return DayStart(2018, 4, 10);
      case 2019: return DayStart(2019, 4, 9);
      default: return DayStart(2020, 5, 6);
    }
  }
  switch (year) {  // Table 2.
    case 2018: return DayStart(2018, 11, 4);
    case 2019: return DayStart(2019, 11, 3);
    default: return DayStart(2020, 4, 5);
  }
}

sim::TimeUs WindowLength(Vantage vantage) {
  return vantage == Vantage::kRoot ? sim::kMicrosPerDay
                                   : 7 * sim::kMicrosPerDay;
}

Provider ProviderOfAsn(net::Asn asn) {
  for (Provider provider : MeasuredProviders()) {
    for (net::Asn candidate : NetworkOf(provider).ases) {
      if (candidate == asn) return provider;
    }
  }
  return Provider::kOther;
}

ScenarioResult RunScenario(const ScenarioConfig& config) {
  ScenarioRuntime runtime(config);
  return runtime.Run();
}

}  // namespace clouddns::cloud
