// One compute function per paper table/figure. Each takes a ScenarioResult
// (or several) and returns the numbers that bench binaries render next to
// the paper's reported values.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/scenario.h"
#include "entrada/plan.h"

namespace clouddns::analysis {

/// Per-source provider tag for AnalysisPlan::SetSourceTag: the source's
/// AS mapped through Table 1 (value = static_cast of cloud::Provider). The
/// plan resolves the source AS itself (via SetAsDatabase) and memoizes per
/// source address, so the Table 1 lookup runs once per distinct resolver,
/// not per query.
[[nodiscard]] entrada::SourceTagFn ProviderTag();
/// Renders provider tags for report keys ("GOOGLE", ...).
[[nodiscard]] entrada::TagNamer ProviderTagNamer();

// ---- Table 3: dataset totals ----
struct DatasetStats {
  std::uint64_t queries_total = 0;
  std::uint64_t queries_valid = 0;
  std::uint64_t resolvers_exact = 0;
  double resolvers_hll = 0;
  std::uint64_t ases_exact = 0;
  double ases_hll = 0;
};
[[nodiscard]] DatasetStats ComputeDatasetStats(
    const cloud::ScenarioResult& result);

// ---- Figure 1: per-provider query share ----
struct ProviderShare {
  cloud::Provider provider;
  std::uint64_t queries = 0;
  double share = 0;
};
/// Shares of *all* queries per measured provider, plus the combined CP
/// total as the last element (provider kOther carries the 5-CP sum).
[[nodiscard]] std::vector<ProviderShare> ComputeCloudShares(
    const cloud::ScenarioResult& result);

// ---- Table 4 / Table 7: Google public vs rest ----
struct GoogleSplit {
  std::uint64_t queries_total = 0;
  std::uint64_t queries_public = 0;
  std::uint64_t resolvers_total = 0;
  std::uint64_t resolvers_public = 0;
  [[nodiscard]] double QueryRatio() const {
    return queries_total == 0
               ? 0
               : static_cast<double>(queries_public) /
                     static_cast<double>(queries_total);
  }
  [[nodiscard]] double ResolverRatio() const {
    return resolvers_total == 0
               ? 0
               : static_cast<double>(resolvers_public) /
                     static_cast<double>(resolvers_total);
  }
};
[[nodiscard]] GoogleSplit ComputeGoogleSplit(
    const cloud::ScenarioResult& result);

// ---- Figure 2 / Figure 7: RR-type mix per provider ----
/// Every measured provider's RR-type mix from ONE fused pass (the
/// Fig. 2 / Fig. 7 driver), keyed by the Fig. 2 categories: A, AAAA, NS,
/// DS, DNSKEY, MX, OTHER.
[[nodiscard]] std::map<cloud::Provider, std::map<std::string, double>>
ComputeRrTypeMixes(const cloud::ScenarioResult& result);

// ---- Figure 3: monthly qtype series (for the Google longitudinal run) --
struct MonthlyQtypeRow {
  std::string month;  ///< "2019-12"
  std::uint64_t total = 0;
  std::map<std::string, double> qtype_share;
};
[[nodiscard]] std::vector<MonthlyQtypeRow> ComputeMonthlyQtypes(
    const cloud::ScenarioResult& result, cloud::Provider provider);

// ---- Figure 4: junk ratio per provider ----
/// Every provider's junk ratio plus the dataset-wide ratio, from ONE
/// fused pass over the capture (the Fig. 4 driver).
struct JunkRatios {
  double overall = 0;
  std::map<cloud::Provider, double> per_provider;
};
[[nodiscard]] JunkRatios ComputeJunkRatios(const cloud::ScenarioResult& result);

// ---- Table 5: transport/IP-version distribution per provider ----
struct TransportMix {
  double ipv4 = 0, ipv6 = 0, udp = 0, tcp = 0;
  std::uint64_t total = 0;
};
/// Every measured provider's transport mix from ONE fused pass (the
/// Table 5 driver).
[[nodiscard]] std::map<cloud::Provider, TransportMix> ComputeTransportMixes(
    const cloud::ScenarioResult& result);

// ---- Table 6: resolver source counts per family ----
struct ResolverFamilyCount {
  std::uint64_t total = 0, v4 = 0, v6 = 0;
};
[[nodiscard]] ResolverFamilyCount ComputeResolverFamilies(
    const cloud::ScenarioResult& result, cloud::Provider provider);

// ---- Figure 5 / Figure 8: Facebook per-site dual-stack & RTT ----
struct FacebookSiteStats {
  std::string site;        ///< Airport code from rDNS.
  std::uint64_t queries = 0;
  double v6_share = 0;
  /// Median TCP-handshake RTT (ms) per family; nullopt when the site sent
  /// no TCP over that family (Location 1 in the paper).
  std::optional<double> median_rtt_v4_ms;
  std::optional<double> median_rtt_v6_ms;
  std::size_t dual_stack_hosts = 0;
};
/// Per-site stats for Facebook's queries captured at one server
/// (`server_id`), read through the scenario's PTR records: a source's PTR
/// name gives its site, and a PTR name seen from both families is one
/// dual-stack host. Sources without a PTR are skipped.
[[nodiscard]] std::vector<FacebookSiteStats> ComputeFacebookSites(
    const cloud::ScenarioResult& result, std::uint32_t server_id);

/// Extracts the site tag from a Facebook-style PTR name
/// ("edge-dns-x-y-z-w.ams.tfbnw.example" -> "ams"): the third label from
/// the end. Returns nullopt for names with fewer than four labels.
[[nodiscard]] std::optional<std::string> SiteTagFromPtr(const dns::Name& ptr);

// ---- Figure 6: EDNS(0) size CDF + truncation ----
struct EdnsStats {
  /// (size, cumulative fraction) curve over UDP queries with EDNS.
  std::vector<std::pair<double, double>> cdf;
  double fraction_at_512 = 0;
  double fraction_up_to_1232 = 0;
  /// Share of UDP answers that were truncated.
  double truncated_udp = 0;
};
[[nodiscard]] EdnsStats ComputeEdnsStats(const cloud::ScenarioResult& result,
                                         cloud::Provider provider);

}  // namespace clouddns::analysis
