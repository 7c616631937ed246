#include "analysis/experiments.h"

#include <algorithm>
#include <unordered_map>

#include "entrada/cdf.h"
#include "entrada/hll.h"

namespace clouddns::analysis {
namespace {

constexpr std::uint32_t TagOf(cloud::Provider provider) {
  return static_cast<std::uint32_t>(provider);
}

cloud::Provider ProviderOf(std::optional<net::Asn> asn) {
  return asn ? cloud::ProviderOfAsn(*asn) : cloud::Provider::kOther;
}

}  // namespace

entrada::SourceTagFn ProviderTag() {
  return [](const net::IpAddress&, std::optional<net::Asn> asn) {
    return TagOf(ProviderOf(asn));
  };
}

entrada::TagNamer ProviderTagNamer() {
  return [](std::uint32_t tag) {
    return std::string(ToString(static_cast<cloud::Provider>(tag)));
  };
}

DatasetStats ComputeDatasetStats(const cloud::ScenarioResult& result) {
  // One fused pass instead of five scans (valid count, two exact distinct
  // passes, two HLL passes).
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  auto valid = plan.Count(entrada::FilterSpec::Valid());
  auto resolvers = plan.Distinct(entrada::FilterSpec::All(),
                                 entrada::KeySpec::SrcAddress());
  auto resolvers_hll = plan.Sketch(entrada::FilterSpec::All(),
                                   entrada::KeySpec::SrcAddress());
  auto ases = plan.Distinct(entrada::FilterSpec::All(),
                            entrada::KeySpec::SrcAs());
  auto ases_hll = plan.Sketch(entrada::FilterSpec::All(),
                              entrada::KeySpec::SrcAs());
  plan.Execute(result.records);

  DatasetStats stats;
  stats.queries_total = result.records.size();
  stats.queries_valid = plan.CountResult(valid);
  stats.resolvers_exact = plan.DistinctResult(resolvers);
  stats.resolvers_hll = plan.SketchResult(resolvers_hll).Estimate();
  stats.ases_exact = plan.DistinctResult(ases);
  stats.ases_hll = plan.SketchResult(ases_hll).Estimate();
  return stats;
}

std::vector<ProviderShare> ComputeCloudShares(
    const cloud::ScenarioResult& result) {
  // One tag-grouped pass counts every provider at once.
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  auto by_provider =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::Tag());
  plan.Execute(result.records);
  const entrada::Aggregation& agg = plan.GroupResult(by_provider);

  std::vector<ProviderShare> shares;
  const double total = static_cast<double>(result.records.size());
  std::uint64_t cp_sum = 0;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    ProviderShare share;
    share.provider = provider;
    share.queries = agg.Of(std::string(ToString(provider)));
    share.share = total == 0 ? 0 : static_cast<double>(share.queries) / total;
    cp_sum += share.queries;
    shares.push_back(share);
  }
  ProviderShare combined;
  combined.provider = cloud::Provider::kOther;  // stands for "all 5 CPs"
  combined.queries = cp_sum;
  combined.share = total == 0 ? 0 : static_cast<double>(cp_sum) / total;
  shares.push_back(combined);
  return shares;
}

GoogleSplit ComputeGoogleSplit(const cloud::ScenarioResult& result) {
  // Three tags: other, Google outside its advertised public-DNS ranges,
  // and Google inside them. Every source has exactly one tag, so the two
  // Google tags' counts, distinct sources included, add up to Google's.
  enum : std::uint32_t { kOther, kGooglePrivate, kGooglePublic };
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag([&public_ranges = result.google_public](
                        const net::IpAddress& src,
                        std::optional<net::Asn> asn) -> std::uint32_t {
    if (ProviderOf(asn) != cloud::Provider::kGoogle) return kOther;
    return public_ranges.Lookup(src).value_or(false) ? kGooglePublic
                                                     : kGooglePrivate;
  });
  const auto google_private = entrada::FilterSpec::Tagged(kGooglePrivate);
  const auto google_public = entrada::FilterSpec::Tagged(kGooglePublic);
  auto queries_private = plan.Count(google_private);
  auto queries_public = plan.Count(google_public);
  auto resolvers_private =
      plan.Distinct(google_private, entrada::KeySpec::SrcAddress());
  auto resolvers_public =
      plan.Distinct(google_public, entrada::KeySpec::SrcAddress());
  plan.Execute(result.records);

  GoogleSplit split;
  split.queries_public = plan.CountResult(queries_public);
  split.queries_total =
      plan.CountResult(queries_private) + split.queries_public;
  split.resolvers_public = plan.DistinctResult(resolvers_public);
  split.resolvers_total =
      plan.DistinctResult(resolvers_private) + split.resolvers_public;
  return split;
}

namespace {

std::map<std::string, double> MixFromAggregation(
    const entrada::Aggregation& agg) {
  std::map<std::string, double> mix;
  static const char* kCategories[] = {"A", "AAAA", "NS", "DS", "DNSKEY", "MX"};
  std::uint64_t categorized = 0;
  for (const char* category : kCategories) {
    std::uint64_t count = agg.Of(category);
    mix[category] = agg.total == 0
                        ? 0
                        : static_cast<double>(count) /
                              static_cast<double>(agg.total);
    categorized += count;
  }
  mix["OTHER"] = agg.total == 0
                     ? 0
                     : static_cast<double>(agg.total - categorized) /
                           static_cast<double>(agg.total);
  return mix;
}

}  // namespace

std::map<cloud::Provider, std::map<std::string, double>> ComputeRrTypeMixes(
    const cloud::ScenarioResult& result) {
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  std::map<cloud::Provider, entrada::AnalysisPlan::Handle> handles;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    handles[provider] = plan.GroupBy(
        entrada::FilterSpec::Tagged(TagOf(provider)),
        entrada::KeySpec::Qtype());
  }
  plan.Execute(result.records);

  std::map<cloud::Provider, std::map<std::string, double>> mixes;
  for (const auto& [provider, handle] : handles) {
    mixes[provider] = MixFromAggregation(plan.GroupResult(handle));
  }
  return mixes;
}

std::vector<MonthlyQtypeRow> ComputeMonthlyQtypes(
    const cloud::ScenarioResult& result, cloud::Provider provider) {
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  auto months_handle = plan.GroupByMonth(
      entrada::FilterSpec::Tagged(TagOf(provider)), entrada::KeySpec::Qtype());
  plan.Execute(result.records);

  std::vector<MonthlyQtypeRow> rows;
  for (const auto& [month, agg] : plan.MonthResult(months_handle)) {
    MonthlyQtypeRow row;
    row.month = month;
    row.total = agg.total;
    for (const auto& [qtype, count] : agg.counts) {
      row.qtype_share[qtype] =
          static_cast<double>(count) / static_cast<double>(agg.total);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

JunkRatios ComputeJunkRatios(const cloud::ScenarioResult& result) {
  // Two tag-grouped aggregates in one pass replace 2 scans per provider
  // plus 2 for the overall ratio.
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  auto all = plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::Tag());
  auto junk =
      plan.GroupBy(entrada::FilterSpec::Junk(), entrada::KeySpec::Tag());
  plan.Execute(result.records);
  const entrada::Aggregation& totals = plan.GroupResult(all);
  const entrada::Aggregation& junks = plan.GroupResult(junk);

  JunkRatios ratios;
  ratios.overall = totals.total == 0
                       ? 0
                       : static_cast<double>(junks.total) /
                             static_cast<double>(totals.total);
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    std::string key(ToString(provider));
    std::uint64_t total = totals.Of(key);
    ratios.per_provider[provider] =
        total == 0 ? 0
                   : static_cast<double>(junks.Of(key)) /
                         static_cast<double>(total);
  }
  return ratios;
}

std::map<cloud::Provider, TransportMix> ComputeTransportMixes(
    const cloud::ScenarioResult& result) {
  // Four tag-grouped aggregates in one pass replace a full scan per
  // provider.
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  auto v4 = plan.GroupBy(entrada::FilterSpec::V4(), entrada::KeySpec::Tag());
  auto v6 = plan.GroupBy(entrada::FilterSpec::V6(), entrada::KeySpec::Tag());
  auto udp = plan.GroupBy(entrada::FilterSpec::Udp(), entrada::KeySpec::Tag());
  auto tcp = plan.GroupBy(entrada::FilterSpec::Tcp(), entrada::KeySpec::Tag());
  plan.Execute(result.records);

  std::map<cloud::Provider, TransportMix> mixes;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    std::string key(ToString(provider));
    TransportMix mix;
    std::uint64_t n_v4 = plan.GroupResult(v4).Of(key);
    std::uint64_t n_v6 = plan.GroupResult(v6).Of(key);
    std::uint64_t n_udp = plan.GroupResult(udp).Of(key);
    std::uint64_t n_tcp = plan.GroupResult(tcp).Of(key);
    mix.total = n_v4 + n_v6;
    if (mix.total > 0) {
      double total = static_cast<double>(mix.total);
      mix.ipv4 = static_cast<double>(n_v4) / total;
      mix.ipv6 = static_cast<double>(n_v6) / total;
      mix.udp = static_cast<double>(n_udp) / total;
      mix.tcp = static_cast<double>(n_tcp) / total;
    }
    mixes[provider] = mix;
  }
  return mixes;
}

ResolverFamilyCount ComputeResolverFamilies(const cloud::ScenarioResult& result,
                                            cloud::Provider provider) {
  // One pass for both families instead of two filtered distinct scans.
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  entrada::FilterSpec tagged = entrada::FilterSpec::Tagged(TagOf(provider));
  entrada::FilterSpec tagged_v4 = tagged;
  tagged_v4.kind = entrada::FilterSpec::Kind::kV4;
  auto total = plan.Distinct(tagged, entrada::KeySpec::SrcAddress());
  auto v4 = plan.Distinct(tagged_v4, entrada::KeySpec::SrcAddress());
  plan.Execute(result.records);

  ResolverFamilyCount count;
  count.total = plan.DistinctResult(total);
  count.v4 = plan.DistinctResult(v4);
  count.v6 = count.total - count.v4;
  return count;
}

std::vector<FacebookSiteStats> ComputeFacebookSites(
    const cloud::ScenarioResult& result, std::uint32_t server_id) {
  // Hosts from the reverse lookup. An address with several PTR records
  // keeps its first, the head of its PTR RRset. A host is a (site, PTR
  // name) pair; names compare case-insensitively, so names that differ
  // only in case are one host. Host h has tag h + 1; tag 0 is every source
  // that is not a Facebook address with a site in its PTR.
  std::vector<std::string> host_sites;
  std::map<std::pair<std::string, dns::Name>, std::uint32_t> host_ids;
  std::unordered_map<net::IpAddress, std::uint32_t, net::IpAddressHash>
      host_of;
  host_of.reserve(result.ptr_records.size());
  for (const auto& [address, target] : result.ptr_records) {
    if (host_of.contains(address)) continue;
    std::uint32_t tag = 0;
    if (auto site = SiteTagFromPtr(target)) {
      auto [it, inserted] = host_ids.try_emplace(
          {*site, target}, static_cast<std::uint32_t>(host_sites.size() + 1));
      if (inserted) host_sites.push_back(std::move(*site));
      tag = it->second;
    }
    host_of.emplace(address, tag);
  }

  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag([&host_of](const net::IpAddress& src,
                               std::optional<net::Asn> asn) -> std::uint32_t {
    if (ProviderOf(asn) != cloud::Provider::kFacebook) return 0;
    auto it = host_of.find(src);
    return it == host_of.end() ? 0 : it->second;  // the paper saw 3 with no PTR
  });
  entrada::FilterSpec at_server, v4 = entrada::FilterSpec::V4(),
                                 v6 = entrada::FilterSpec::V6();
  at_server.server = v4.server = v6.server = server_id;
  const auto host = entrada::KeySpec::Tag();
  auto queries = plan.GroupBy(at_server, host);
  auto v6_queries = plan.GroupBy(v6, host);
  auto rtt_v4 = plan.Collect(v4, entrada::ValueKind::kTcpRttMs, host);
  auto rtt_v6 = plan.Collect(v6, entrada::ValueKind::kTcpRttMs, host);
  plan.Execute(result.records);

  // Roll the hosts up into their sites. Group keys are host tags in
  // decimal, the plan's rendering without a namer.
  struct SiteAccumulator {
    std::uint64_t queries = 0;
    std::uint64_t v6 = 0;
    entrada::Cdf tcp_rtt_v4_ms;
    entrada::Cdf tcp_rtt_v6_ms;
    std::size_t dual_stack_hosts = 0;
  };
  std::map<std::string, SiteAccumulator> sites;
  const entrada::Aggregation& v6_by_host = plan.GroupResult(v6_queries);
  auto& rtt_v4_by_host = plan.KeyedCdfResult(rtt_v4);
  auto& rtt_v6_by_host = plan.KeyedCdfResult(rtt_v6);
  for (const auto& [key, n] : plan.GroupResult(queries).counts) {
    const std::uint32_t tag = static_cast<std::uint32_t>(std::stoul(key));
    if (tag == 0) continue;
    SiteAccumulator& acc = sites[host_sites[tag - 1]];
    const std::uint64_t n_v6 = v6_by_host.Of(key);
    acc.queries += n;
    acc.v6 += n_v6;
    acc.dual_stack_hosts += n_v6 > 0 && n_v6 < n;
    if (auto it = rtt_v4_by_host.find(key); it != rtt_v4_by_host.end()) {
      acc.tcp_rtt_v4_ms.Merge(it->second);
    }
    if (auto it = rtt_v6_by_host.find(key); it != rtt_v6_by_host.end()) {
      acc.tcp_rtt_v6_ms.Merge(it->second);
    }
  }

  std::vector<FacebookSiteStats> stats;
  for (auto& [site, acc] : sites) {
    FacebookSiteStats row;
    row.site = site;
    row.queries = acc.queries;
    row.v6_share = static_cast<double>(acc.v6) /
                   static_cast<double>(acc.queries);
    auto median = [](entrada::Cdf& cdf) -> std::optional<double> {
      if (cdf.count() == 0) return std::nullopt;
      return cdf.Median();
    };
    row.median_rtt_v4_ms = median(acc.tcp_rtt_v4_ms);
    row.median_rtt_v6_ms = median(acc.tcp_rtt_v6_ms);
    row.dual_stack_hosts = acc.dual_stack_hosts;
    stats.push_back(std::move(row));
  }
  // `sites` is in site-name order, so a stable sort breaks query-count ties
  // by site name, for any site count and any standard library.
  std::stable_sort(stats.begin(), stats.end(),
                   [](const FacebookSiteStats& a, const FacebookSiteStats& b) {
                     return a.queries > b.queries;
                   });
  return stats;
}

std::optional<std::string> SiteTagFromPtr(const dns::Name& ptr) {
  // "<host>.<site>.<org>.example": the site is the label above the
  // provider's domain.
  if (ptr.LabelCount() < 4) return std::nullopt;
  return std::string(ptr.Label(ptr.LabelCount() - 3));
}

EdnsStats ComputeEdnsStats(const cloud::ScenarioResult& result,
                           cloud::Provider provider) {
  // CDF + UDP + truncation aggregates in one pass instead of three scans.
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetSourceTag(ProviderTag(), ProviderTagNamer());
  entrada::FilterSpec udp_tagged = entrada::FilterSpec::Udp();
  udp_tagged.tag = TagOf(provider);
  entrada::FilterSpec udp_with_edns = udp_tagged;
  udp_with_edns.flags = entrada::FilterSpec::kEdns;
  entrada::FilterSpec udp_truncated = udp_tagged;
  udp_truncated.flags = entrada::FilterSpec::kTc;

  auto sizes = plan.Collect(udp_with_edns, entrada::ValueKind::kEdnsUdpSize);
  auto udp = plan.Count(udp_tagged);
  auto truncated = plan.Count(udp_truncated);
  plan.Execute(result.records);

  EdnsStats stats;
  entrada::Cdf& cdf = plan.CdfResult(sizes);
  stats.fraction_at_512 = cdf.FractionAtOrBelow(512);
  stats.fraction_up_to_1232 = cdf.FractionAtOrBelow(1232);
  stats.cdf = cdf.Curve();
  std::uint64_t udp_count = plan.CountResult(udp);
  stats.truncated_udp =
      udp_count == 0 ? 0
                     : static_cast<double>(plan.CountResult(truncated)) /
                           static_cast<double>(udp_count);
  return stats;
}

}  // namespace clouddns::analysis
