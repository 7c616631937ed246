// Plans resolver fleets: the per-provider farms of resolver backends and
// egress frontends, plus the ~37k-AS "rest of the Internet" population.
// Every frontend address is minted inside the provider's announced blocks
// so ENTRADA-style prefix->AS enrichment attributes it correctly, and every
// frontend gets a PTR record so the Fig. 5 reverse-DNS methodology works.
// A fleet is a plan: engine configs, weights and PTR records. The scenario
// builds each engine from its config on the network of the shard that
// owns it, so planning needs no network and no root hints.
#pragma once

#include <vector>

#include "cloud/providers.h"
#include "resolver/resolver.h"
#include "sim/latency.h"
#include "sim/random.h"

namespace clouddns::cloud {

/// Airport codes of Facebook's 13 resolver sites (Fig. 5). Index 0 is the
/// dominant "Location 1" that sends no TCP.
[[nodiscard]] const std::vector<std::string>& FacebookSiteCodes();

struct FleetBuildContext {
  sim::LatencyModel* latency = nullptr;
  /// Sites resolvers may be placed at (pre-created by the scenario).
  std::vector<sim::SiteId> resolver_sites;
  double fleet_scale = 0.01;
  std::uint64_t seed = 1;
  /// Ablation: build every engine with QNAME minimization disabled.
  bool qmin_off = false;
};

struct Fleet {
  Provider provider = Provider::kOther;
  /// Configuration of each resolver engine.
  std::vector<resolver::ResolverConfig> engine_configs;
  /// Client-load weight of each engine (drawn per client query).
  std::vector<double> engine_weights;
  /// Google only: which engines are the Public DNS service (Table 4).
  std::vector<bool> engine_is_public;
  /// Other-fleet only: the ASN each engine's host block was announced from.
  std::vector<net::Asn> engine_asns;
  double junk_fraction = 0.1;
  double client_weight = 1.0;
  /// PTR records for every frontend (the Fig. 5 rDNS substrate).
  std::vector<std::pair<net::IpAddress, dns::Name>> ptr_records;

  [[nodiscard]] std::size_t host_count() const;
};

/// Plans the fleet for one measured provider in one year.
[[nodiscard]] Fleet BuildProviderFleet(const ProviderProfile& profile,
                                       FleetBuildContext& ctx);

/// Plans the "rest of the Internet": `as_count` single-AS resolver
/// populations with heavy-tailed client load, mixed configurations, and
/// year-dependent validation/q-min adoption. Announces their blocks into
/// `asdb`.
[[nodiscard]] Fleet BuildOtherFleet(int year, std::size_t as_count,
                                    net::AsDatabase& asdb,
                                    FleetBuildContext& ctx);

}  // namespace clouddns::cloud
