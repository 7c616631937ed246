#include "analysis/experiments.h"

#include <algorithm>
#include <unordered_map>

#include "entrada/cdf.h"
#include "entrada/hll.h"

namespace clouddns::analysis {
namespace {

constexpr std::uint16_t TagOf(cloud::Provider provider) {
  return static_cast<std::uint16_t>(provider);
}

}  // namespace

cloud::Provider ProviderOfRecord(const cloud::ScenarioResult& result,
                                 const capture::CaptureRecord& record) {
  auto asn = result.asdb.OriginAs(record.src);
  return asn ? cloud::ProviderOfAsn(*asn) : cloud::Provider::kOther;
}

entrada::AsnTagFn ProviderAsnTag() {
  std::unordered_map<net::Asn, std::uint16_t> by_asn;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    for (net::Asn asn : cloud::NetworkOf(provider).ases) {
      by_asn.emplace(asn, TagOf(provider));
    }
  }
  return [by_asn = std::move(by_asn)](std::optional<net::Asn> asn) {
    if (!asn) return TagOf(cloud::Provider::kOther);
    auto it = by_asn.find(*asn);
    return it == by_asn.end() ? TagOf(cloud::Provider::kOther) : it->second;
  };
}

entrada::TagNamer ProviderTagNamer() {
  return [](std::uint16_t tag) {
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
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
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(result.asdb);
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
  auto is_public = [&result](const capture::CaptureRecord& record) {
    return result.google_public.Lookup(record.src).value_or(false);
  };
  entrada::FilterSpec google =
      entrada::FilterSpec::Tagged(TagOf(cloud::Provider::kGoogle));
  entrada::FilterSpec google_public = google;
  google_public.custom = is_public;

  auto queries = plan.Count(google);
  auto queries_public = plan.Count(google_public);
  auto resolvers = plan.Distinct(google, entrada::KeySpec::SrcAddress());
  auto resolvers_public =
      plan.Distinct(google_public, entrada::KeySpec::SrcAddress());
  plan.Execute(result.records);

  GoogleSplit split;
  split.queries_total = plan.CountResult(queries);
  split.queries_public = plan.CountResult(queries_public);
  split.resolvers_total = plan.DistinctResult(resolvers);
  split.resolvers_public = plan.DistinctResult(resolvers_public);
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
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
  // The reverse lookup. An address with several PTR records keeps its
  // first, the head of its PTR RRset.
  std::unordered_map<net::IpAddress, const dns::Name*, net::IpAddressHash>
      ptr_of;
  ptr_of.reserve(result.ptr_records.size());
  for (const auto& [address, target] : result.ptr_records) {
    ptr_of.emplace(address, &target);
  }

  struct SiteAccumulator {
    std::uint64_t queries = 0;
    std::uint64_t v6 = 0;
    entrada::Cdf tcp_rtt_v4_ms;
    entrada::Cdf tcp_rtt_v6_ms;
    /// Families seen per PTR name (bit 0 = v4, bit 1 = v6). Name order is
    /// case-insensitive, so names that differ only in case are one host.
    std::map<dns::Name, std::uint8_t> families;
  };
  std::map<std::string, SiteAccumulator> sites;

  // Every aggregate is order-free, so the shards are scanned in place.
  for (std::size_t s = 0; s < result.records.shard_count(); ++s) {
    for (const auto& record : result.records.shard(s)) {
      if (record.server_id != server_id) continue;
      if (ProviderOfRecord(result, record) != cloud::Provider::kFacebook) {
        continue;
      }
      auto ptr = ptr_of.find(record.src);
      if (ptr == ptr_of.end()) continue;  // the paper saw 3 with no PTR
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
    row.v6_share = static_cast<double>(acc.v6) /
                   static_cast<double>(acc.queries);
    auto median = [](entrada::Cdf& cdf) -> std::optional<double> {
      if (cdf.count() == 0) return std::nullopt;
      return cdf.Median();
    };
    row.median_rtt_v4_ms = median(acc.tcp_rtt_v4_ms);
    row.median_rtt_v6_ms = median(acc.tcp_rtt_v6_ms);
    row.dual_stack_hosts = static_cast<std::size_t>(std::count_if(
        acc.families.begin(), acc.families.end(),
        [](const auto& entry) { return entry.second == 3; }));
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
  plan.SetAsnTag(ProviderAsnTag(), ProviderTagNamer());
  entrada::FilterSpec udp_tagged =
      entrada::FilterSpec::Tagged(TagOf(provider));
  udp_tagged.kind = entrada::FilterSpec::Kind::kUdp;
  entrada::FilterSpec udp_with_edns = udp_tagged;
  udp_with_edns.custom = [](const capture::CaptureRecord& r) {
    return r.has_edns;
  };
  entrada::FilterSpec udp_truncated = udp_tagged;
  udp_truncated.custom = [](const capture::CaptureRecord& r) { return r.tc; };

  auto sizes = plan.Collect(
      udp_with_edns,
      [](const capture::CaptureRecord& r) -> std::optional<double> {
        return static_cast<double>(r.edns_udp_size);
      });
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
