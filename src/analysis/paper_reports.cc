#include "analysis/paper_reports.h"

#include <map>
#include <optional>

#include "analysis/chaos.h"
#include "analysis/dataset_cache.h"
#include "analysis/report.h"
#include "entrada/topk.h"

namespace clouddns::analysis {
namespace {

std::string Name(cloud::Vantage vantage) {
  return std::string(cloud::ToString(vantage));
}
std::string Name(cloud::Provider provider) {
  return std::string(cloud::ToString(provider));
}

constexpr cloud::Vantage kAllVantages[] = {
    cloud::Vantage::kNl, cloud::Vantage::kNz, cloud::Vantage::kRoot};
constexpr cloud::Vantage kCcTlds[] = {cloud::Vantage::kNl,
                                      cloud::Vantage::kNz};
constexpr int kYears[] = {2018, 2019, 2020};

// Table 2: the .nl and .nz authoritative NS sets and zone sizes per capture
// week. Metadata only (no traffic is simulated): the scenario builder's
// zone/NS inventory is compared against the paper.
struct Table2Ref {
  const char* week;
  int anycast;
  int unicast;
  int captured;
  const char* zone_size;
};

void AppendTable2Row(std::string& out, cloud::Vantage vantage, int year,
                     const Table2Ref& ref) {
  cloud::ScenarioConfig config = StandardConfig(vantage, year);
  config.client_queries = 0;  // metadata only
  cloud::ScenarioResult result = cloud::RunScenario(config);

  // Both ccTLDs exist in every scenario; this table is per-vantage, so
  // filter the NS set by the vantage TLD's label prefix.
  const std::string prefix =
      vantage == cloud::Vantage::kNl ? "nl-" : "nz-";
  const std::string tld = vantage == cloud::Vantage::kNl ? "nl" : "nz";
  int anycast = 0, unicast = 0, captured = 0;
  for (const auto& server : result.servers) {
    if (server.id >= 100) continue;  // root letters are not this table
    if (server.label.rfind(prefix, 0) != 0) continue;
    (server.anycast ? anycast : unicast)++;
    captured += server.captured;
  }
  Appendf(out,
          "%-6s %-24s  NSSet paper=%dA,%dU measured=%dA,%dU  analyzed "
          "paper=%d measured=%d  zone paper=%s measured=%zu (x%.4g scale)\n",
          Name(vantage).c_str(), ref.week, ref.anycast, ref.unicast, anycast,
          unicast, ref.captured, captured, ref.zone_size,
          result.zone_domains_by_tld.at(tld), config.zone_scale);
}

std::string Table2() {
  std::string out = Banner("Table 2", ".nl and .nz authoritative servers");
  AppendTable2Row(out, cloud::Vantage::kNl, 2018, {"w2018", 4, 0, 2, "5.8M"});
  AppendTable2Row(out, cloud::Vantage::kNl, 2019, {"w2019", 4, 0, 2, "5.8M"});
  AppendTable2Row(out, cloud::Vantage::kNl, 2020, {"w2020", 3, 0, 2, "5.9M"});
  AppendTable2Row(out, cloud::Vantage::kNz, 2018, {"w2018", 6, 1, 6, "720K"});
  AppendTable2Row(out, cloud::Vantage::kNz, 2019, {"w2019", 6, 1, 6, "710K"});
  AppendTable2Row(out, cloud::Vantage::kNz, 2020, {"w2020", 6, 1, 6, "710K"});
  Appendf(out,
          "\nNote: captured-NS counts follow the paper (2 of .nl's NSes, 6 of\n"
          ".nz's 7); zone sizes are the paper's counts times the configured\n"
          "zone_scale.\n");
  return out;
}

// Table 3: total/valid queries, distinct resolvers and distinct ASes for
// the nine datasets. Absolute counts are scaled; the comparisons that must
// hold are the ratios: valid share per vantage, the ccTLD-vs-root junk
// contrast, and the growth directions across years.
std::string Table3() {
  std::string out = Banner("Table 3", "Evaluated datasets");
  TextTable table({"dataset", "queries", "valid", "valid%", "paper-valid%",
                   "resolvers", "resolvers(HLL)", "ASes",
                   "paper-ASes(scaled)"});
  for (cloud::Vantage vantage : kAllVantages) {
    for (int year : kYears) {
      auto result = LoadOrRun(StandardConfig(vantage, year));
      auto stats = ComputeDatasetStats(result);
      auto paper_row = *paper::Table3(vantage, year);
      double paper_valid =
          paper_row.queries_valid_b / paper_row.queries_total_b;
      double scaled_ases =
          static_cast<double>(paper_row.ases) * cloud::kAsScale;
      table.AddRow({Name(vantage) + " " + std::to_string(year),
                    Count(stats.queries_total), Count(stats.queries_valid),
                    Percent(static_cast<double>(stats.queries_valid) /
                            static_cast<double>(stats.queries_total)),
                    Percent(paper_valid), Count(stats.resolvers_exact),
                    Fixed(stats.resolvers_hll, 0), Count(stats.ases_exact),
                    Fixed(scaled_ases, 0)});
    }
  }
  out += table.Render();
  Appendf(out,
          "\nExpected shape: ccTLD valid%% high (~71-86%%), B-Root valid%% "
          "low\n(20-35%%, Chromium junk); query volume grows every year at "
          "every\nvantage; HLL estimates track the exact distinct counts "
          "within ~1%%.\n");
  return out;
}

// §4.1's textual claim: "in the 2020 dataset, the first CP was in a 5th
// place rank" at B-Root, behind large ISPs. Rank source ASes with the
// Space-Saving sketch and report where the first cloud AS lands. The
// sketch's counts depend on the order it sees records in, so this is the
// one Fig. 1 consumer that asks for the time-ordered stream.
void AppendRootAsRanking(std::string& out,
                         const cloud::ScenarioResult& result) {
  entrada::SpaceSaving topk(256);
  for (const auto& record : result.records.TimeOrderedCopy()) {
    auto asn = result.asdb.OriginAs(record.src);
    topk.Add(asn ? "AS" + std::to_string(*asn) : "AS?");
  }
  Appendf(out, "\nTop source ASes at B-Root %d (Space-Saving sketch):\n",
          result.config.year);
  int rank = 0, first_cp_rank = 0;
  for (const auto& entry : topk.Top(10)) {
    ++rank;
    cloud::Provider provider = cloud::Provider::kOther;
    if (entry.key != "AS?") {
      provider = cloud::ProviderOfAsn(
          static_cast<net::Asn>(std::stoul(entry.key.substr(2))));
    }
    bool is_cp = provider != cloud::Provider::kOther;
    if (is_cp && first_cp_rank == 0) first_cp_rank = rank;
    Appendf(out, "  #%-2d %-9s %8s queries  %s\n", rank, entry.key.c_str(),
            Count(entry.count).c_str(),
            is_cp ? Name(provider).c_str() : "(ISP)");
  }
  Appendf(out,
          "First cloud AS ranks #%d (paper, 2020: #5 behind ISPs from\n"
          "India, France and Indonesia).\n",
          first_cp_rank == 0 ? -1 : first_cp_rank);
}

// Figure 1: the share of all queries from the five cloud providers' ASes
// per vantage and year — ~30% of ccTLD queries, but only ~8.7% of
// B-Root's.
std::string Figure1() {
  std::string out =
      Banner("Figure 1", "Clouds' query ratio per ccTLD and B-Root");
  for (cloud::Vantage vantage : kAllVantages) {
    TextTable table({"year", "GOOGLE", "AMAZON", "MICROSOFT", "FACEBOOK",
                     "CLOUDFLARE", "5 CPs", "paper~"});
    for (int year : kYears) {
      auto shares =
          ComputeCloudShares(LoadOrRun(StandardConfig(vantage, year)));
      std::vector<std::string> row = {std::to_string(year)};
      for (const auto& share : shares) row.push_back(Percent(share.share));
      row.push_back(Percent(paper::Figure1CloudShare(vantage, year)));
      table.AddRow(std::move(row));
    }
    Appendf(out, "\n[%s]\n", Name(vantage).c_str());
    out += table.Render();
    if (vantage == cloud::Vantage::kRoot) {
      AppendRootAsRanking(out, LoadOrRun(StandardConfig(vantage, 2020)));
    }
  }
  Appendf(out,
          "\nExpected shape: 5 CPs carry ~30%% of ccTLD queries (Google the\n"
          "largest, and larger at .nl than .nz), but under 10%% of "
          "B-Root's —\nthe root's view is dominated by the long tail of "
          "other ASes.\n");
  return out;
}

// Tables 4 and 7 (Appendix A): Google's queries split between its
// advertised Public DNS ranges and the rest of its infrastructure, in
// w2020 and, as the paper's stability check, w2019.
std::string GoogleSplitReport(int year) {
  const bool appendix = year == 2019;
  std::string out =
      appendix ? Banner("Table 7 (Appendix A)", "Queries from Google on w2019")
               : Banner("Table 4", "Queries from Google on w2020");
  TextTable table({"vantage", "queries", "pub-queries", "ratio", "paper",
                   "resolvers", "pub-resolvers", "ratio", "paper"});
  for (cloud::Vantage vantage : kCcTlds) {
    auto split = ComputeGoogleSplit(LoadOrRun(StandardConfig(vantage, year)));
    auto ref = *paper::GoogleSplitRef(vantage, year);
    table.AddRow({Name(vantage), Count(split.queries_total),
                  Count(split.queries_public), Percent(split.QueryRatio()),
                  Percent(ref.query_ratio), Count(split.resolvers_total),
                  Count(split.resolvers_public),
                  Percent(split.ResolverRatio()),
                  Percent(ref.resolver_ratio)});
  }
  out += table.Render();
  if (appendix) {
    Appendf(out,
            "\nExpected shape: same split as Table 4 one year earlier — the\n"
            "public service carries ~84-89%% of Google's queries from a "
            "small\nfraction of its sources.\n");
  } else {
    Appendf(out,
            "\nExpected shape: the public service is ~86-88%% of Google's "
            "query\nvolume from a small (~16-19%%) slice of its source "
            "addresses, and\nthe ratio is similar at both ccTLDs.\n");
  }
  return out;
}

// One panel of Figures 2 and 7: each provider's RR-type mix at one vantage
// and year.
std::string RrTypePanel(cloud::Vantage vantage, int year) {
  constexpr const char* kTypes[] = {"A",      "AAAA", "NS",   "DS",
                                    "DNSKEY", "MX",   "OTHER"};
  TextTable table({"provider", "A", "AAAA", "NS", "DS", "DNSKEY", "MX",
                   "OTHER"});
  // One fused pass covers every provider.
  auto mixes = ComputeRrTypeMixes(LoadOrRun(StandardConfig(vantage, year)));
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    auto& mix = mixes[provider];
    std::vector<std::string> row = {Name(provider)};
    for (const char* type : kTypes) row.push_back(Percent(mix[type]));
    table.AddRow(std::move(row));
  }
  std::string out;
  Appendf(out, "\n[%s %d]\n", Name(vantage).c_str(), year);
  return out + table.Render();
}

// Figure 2: the RR-type mix per cloud provider, 2018 vs 2020, at both
// ccTLDs. A/AAAA dominate in 2018; by 2020 NS surges for the q-min
// adopters.
std::string Figure2() {
  std::string out = Banner("Figure 2", "Resource records per cloud provider");
  for (cloud::Vantage vantage : kCcTlds) {
    out += RrTypePanel(vantage, 2018);
    out += RrTypePanel(vantage, 2020);
  }
  Appendf(out,
          "\nExpected shape: 2018 panels are A/AAAA-heavy for every provider\n"
          "(except Cloudflare, an early q-min + explicit-DS adopter); in 2020\n"
          "NS dominates for Google/Facebook/Cloudflare (q-min), Amazon shows "
          "a\npartial NS rise, and Microsoft alone still shows no DNSSEC "
          "types.\n");
  return out;
}

// Figure 7 (Appendix B): the 2019 panels omitted from Figure 2 for space.
std::string Figure7() {
  std::string out = Banner("Figure 7 (Appendix B)",
                           "Resource records per cloud provider, 2019");
  for (cloud::Vantage vantage : kCcTlds) out += RrTypePanel(vantage, 2019);
  Appendf(out,
          "\nExpected shape: like the 2018 panels for everyone but "
          "Cloudflare\n— the w2019 capture (Nov 2019) predates Google's "
          "Dec-2019 q-min\nrollout, so no NS surge yet.\n");
  return out;
}

// One Figure 3 panel: Google's monthly query mix over the longitudinal
// window, with the first month whose NS share jumps by more than 20 points
// reported as the q-min deployment. The q-min-off ablation must show no
// such month.
void AppendLongitudinalPanel(std::string& out, cloud::Vantage vantage,
                             bool ablation_qmin_off) {
  cloud::ScenarioConfig config = LongitudinalGoogleConfig(vantage);
  config.qmin_override_off = ablation_qmin_off;
  auto rows =
      ComputeMonthlyQtypes(LoadOrRun(config), cloud::Provider::kGoogle);

  TextTable table(
      {"month", "queries", "A", "AAAA", "NS", "DS", "DNSKEY", "other"});
  std::string detected_month;
  double previous_ns = 0;
  for (const auto& row : rows) {
    auto share = [&row](const char* key) {
      auto it = row.qtype_share.find(key);
      return it == row.qtype_share.end() ? 0.0 : it->second;
    };
    double ns = share("NS");
    double other = 1.0 - share("A") - share("AAAA") - ns - share("DS") -
                   share("DNSKEY");
    table.AddRow({row.month, Count(row.total), Percent(share("A")),
                  Percent(share("AAAA")), Percent(ns), Percent(share("DS")),
                  Percent(share("DNSKEY")), Percent(other)});
    if (detected_month.empty() && ns > previous_ns + 0.20 && ns > 0.30) {
      detected_month = row.month;
    }
    previous_ns = ns;
  }
  Appendf(out, "\n[%s%s]\n", Name(vantage).c_str(),
          ablation_qmin_off ? ", ABLATION: q-min forced off" : "");
  out += table.Render();
  if (!ablation_qmin_off) {
    Appendf(out, "Detected Q-min deployment month: %s (paper: %s)\n",
            detected_month.empty() ? "none" : detected_month.c_str(),
            paper::kGoogleQminMonth);
  } else {
    Appendf(out, "Ablation check: %s\n",
            detected_month.empty() ? "no NS surge without q-min, as expected"
                                   : "UNEXPECTED NS surge despite q-min off");
  }
}

// Figure 3: Google's monthly query mix at .nl and .nz, Sep 2019 to Apr
// 2020 — the Dec-2019 q-min deployment, and the Feb-2020 .nz cyclic-
// dependency A/AAAA spike.
std::string Figure3() {
  std::string out =
      Banner("Figure 3", "Google's monthly query mix and the Q-min rollout");
  AppendLongitudinalPanel(out, cloud::Vantage::kNl, false);
  AppendLongitudinalPanel(out, cloud::Vantage::kNz, false);
  AppendLongitudinalPanel(out, cloud::Vantage::kNl, true);
  Appendf(out,
          "\nExpected shape: NS share jumps in Dec 2019 at both ccTLDs and\n"
          "stays high; at .nz only, Feb 2020 shows an A/AAAA spike (the "
          "cyclic\ndependency event) with the NS trend resuming in March; "
          "the ablation\nrun shows no NS surge at all.\n");
  return out;
}

// Figure 4: each provider's junk (non-NOERROR) ratio next to the overall
// junk ratio of §3.
std::string Figure4() {
  std::string out = Banner("Figure 4", "Clouds' DNS junk query ratio");
  for (cloud::Vantage vantage : kAllVantages) {
    TextTable table({"year", "GOOGLE", "AMAZON", "MICROSOFT", "FACEBOOK",
                     "CLOUDFLARE", "ALL", "paper-ALL"});
    for (int year : kYears) {
      // One fused pass yields every provider's ratio plus the overall one.
      auto ratios = ComputeJunkRatios(LoadOrRun(StandardConfig(vantage, year)));
      std::vector<std::string> row = {std::to_string(year)};
      for (cloud::Provider provider : cloud::MeasuredProviders()) {
        row.push_back(Percent(ratios.per_provider[provider]));
      }
      row.push_back(Percent(ratios.overall));
      row.push_back(Percent(paper::SectionThreeJunk(vantage, year)));
      table.AddRow(std::move(row));
    }
    Appendf(out, "\n[%s]\n", Name(vantage).c_str());
    out += table.Render();
  }
  Appendf(out,
          "\nExpected shape: similar CP junk ratios at .nl and .nz; overall\n"
          "B-Root junk is far higher than any CP's own junk ratio there.\n");
  return out;
}

// Table 5: per-provider IPv4/IPv6 and UDP/TCP query ratios at both ccTLDs,
// all three years.
std::string Table5() {
  std::string out = Banner("Table 5", "Query distribution per CP for ccTLDs");
  for (cloud::Vantage vantage : kCcTlds) {
    TextTable table({"provider", "year", "IPv4", "(paper)", "IPv6", "(paper)",
                     "UDP", "(paper)", "TCP", "(paper)"});
    // One fused pass per dataset covers every provider's mix.
    std::map<int, std::map<cloud::Provider, TransportMix>> by_year;
    for (int year : kYears) {
      by_year[year] =
          ComputeTransportMixes(LoadOrRun(StandardConfig(vantage, year)));
    }
    for (cloud::Provider provider : cloud::MeasuredProviders()) {
      for (int year : kYears) {
        const auto& mix = by_year[year][provider];
        auto ref = *paper::Table5(provider, vantage, year);
        table.AddRow({Name(provider), std::to_string(year), Ratio(mix.ipv4),
                      Ratio(ref.ipv4), Ratio(mix.ipv6), Ratio(ref.ipv6),
                      Ratio(mix.udp), Ratio(ref.udp), Ratio(mix.tcp),
                      Ratio(ref.tcp)});
      }
    }
    Appendf(out, "\n[%s]\n", Name(vantage).c_str());
    out += table.Render();
  }
  Appendf(out,
          "\nExpected shape: Google/Cloudflare near-even v4:v6 and ~pure "
          "UDP;\nAmazon and Microsoft essentially v4-only (Amazon grows a "
          "small TCP\nshare); Facebook v6-majority from 2019 with a material "
          "TCP share\ndriven by its 512-byte EDNS frontends.\n");
  return out;
}

// Table 6: Amazon's and Microsoft's distinct resolver addresses by IP
// family, w2020. Absolute counts scale with cloud::kFleetScale.
std::string Table6() {
  std::string out = Banner("Table 6", "Amazon and Microsoft resolvers (w2020)");
  TextTable table({"provider", "vantage", "total", "IPv4", "IPv4%", "paper%",
                   "IPv6", "IPv6%", "paper%", "paper-total(scaled)"});
  for (cloud::Provider provider :
       {cloud::Provider::kAmazon, cloud::Provider::kMicrosoft}) {
    for (cloud::Vantage vantage : kCcTlds) {
      auto result = LoadOrRun(StandardConfig(vantage, 2020));
      auto count = ComputeResolverFamilies(result, provider);
      auto ref = *paper::Table6(provider, vantage);
      double total = static_cast<double>(count.total);
      table.AddRow(
          {Name(provider), Name(vantage), Count(count.total),
           Count(count.v4), Percent(total == 0 ? 0 : count.v4 / total),
           Percent(static_cast<double>(ref.v4) / ref.total), Count(count.v6),
           Percent(total == 0 ? 0 : count.v6 / total),
           Percent(static_cast<double>(ref.v6) / ref.total),
           Fixed(static_cast<double>(ref.total) * cloud::kFleetScale, 0)});
    }
  }
  out += table.Render();
  Appendf(out,
          "\nExpected shape: >93%% of both providers' source addresses are\n"
          "IPv4; the small IPv6 populations match the tiny IPv6 traffic "
          "shares\nin Table 5 (Amazon's few v6 sources send a bit, "
          "Microsoft's almost\nnothing).\n");
  return out;
}

std::string FacebookSites(int server_id) {
  return FacebookSitesReport(
      server_id, ComputeFacebookSites(
                     LoadOrRun(StandardConfig(cloud::Vantage::kNl, 2020)),
                     server_id));
}

// Figure 6 and §4.4: the EDNS(0) UDP-size CDFs of Facebook, Google and
// Microsoft at .nl (w2020) and the truncation they cause.
std::string Figure6() {
  std::string out =
      Banner("Figure 6", "CDF of EDNS(0) UDP message size, .nl w2020");
  auto result = LoadOrRun(StandardConfig(cloud::Vantage::kNl, 2020));
  std::map<cloud::Provider, EdnsStats> by_provider;
  for (cloud::Provider provider :
       {cloud::Provider::kFacebook, cloud::Provider::kGoogle,
        cloud::Provider::kMicrosoft}) {
    const EdnsStats& stats = by_provider[provider] =
        ComputeEdnsStats(result, provider);
    Appendf(out, "\n[%s] EDNS(0) size CDF points:\n", Name(provider).c_str());
    for (const auto& [size, fraction] : stats.cdf) {
      Appendf(out, "  size <= %4.0f : %s\n", size, Percent(fraction).c_str());
    }
    Appendf(out, "  truncated UDP answers: %s\n",
            Percent(stats.truncated_udp).c_str());
  }

  const EdnsStats& facebook = by_provider[cloud::Provider::kFacebook];
  const EdnsStats& google = by_provider[cloud::Provider::kGoogle];
  const EdnsStats& microsoft = by_provider[cloud::Provider::kMicrosoft];
  TextTable table({"metric", "measured", "paper"});
  table.AddRow({"Facebook share at EDNS 512", Percent(facebook.fraction_at_512),
                Percent(paper::kFacebookEdns512Share)});
  table.AddRow({"Google share at sizes <= 1232",
                Percent(google.fraction_up_to_1232),
                Percent(paper::kGoogleEdnsUpTo1232Share)});
  table.AddRow({"Facebook truncated UDP", Percent(facebook.truncated_udp),
                Percent(paper::kFacebookTruncated)});
  table.AddRow({"Google truncated UDP", Percent(google.truncated_udp),
                Percent(paper::kGoogleTruncated)});
  table.AddRow({"Microsoft truncated UDP", Percent(microsoft.truncated_udp),
                Percent(paper::kMicrosoftTruncated)});
  out += "\n" + table.Render();
  Appendf(out,
          "\nExpected shape: ~30%% of Facebook's UDP queries advertise 512\n"
          "bytes while Google advertises >= 1232, so Facebook sees orders of\n"
          "magnitude more truncation — which is what drives its TCP share "
          "in\nTable 5.\n");
  return out;
}

// Figure 3b mechanics: the Feb-2020 .nz cyclic-dependency weeks against a
// normal-month baseline. The event run adds the broken cyclic pair to the
// query stream and runs under a response-heavy loss regime
// (FaultPreset::kNzEventLoss); the report shows how much the resolvers'
// retry/timeout/failover engine multiplies the upstream load, the
// mechanism by which a broken pair of domains raised the TLD's traffic.
std::string Figure3b() {
  std::string out = Banner("Figure 3b (event mechanics)",
                           "Retry amplification during the .nz cyclic event");
  cloud::ScenarioConfig baseline_config;
  baseline_config.vantage = cloud::Vantage::kNz;
  baseline_config.year = 2020;
  baseline_config.client_queries = 150'000;
  // The event weeks only: Feb 3 - Feb 27 2020 (plus the warmup day).
  baseline_config.window_start = sim::TimeFromCivil({2020, 2, 3});
  baseline_config.window_end = sim::TimeFromCivil({2020, 2, 27});
  baseline_config.google_only = true;
  // A small warmup keeps one-time TLD discovery from diluting the
  // event-window contrast.
  baseline_config.warmup_fraction = 0.1;
  cloud::ScenarioConfig faulted_config = baseline_config;
  faulted_config.inject_cyclic_event = true;
  faulted_config.fault_preset = cloud::FaultPreset::kNzEventLoss;

  const cloud::ScenarioResult baseline = LoadOrRun(baseline_config);
  const cloud::ScenarioResult faulted = LoadOrRun(faulted_config);
  const RetryAmplification amp = ComputeRetryAmplification(baseline, faulted);

  TextTable table({"metric", "baseline", "faulted", "factor"});
  table.AddRow({"upstream queries", Count(amp.baseline_upstream),
                Count(amp.faulted_upstream), Fixed(amp.upstream_factor, 2)});
  table.AddRow({"captured at .nz", Count(amp.baseline_captured),
                Count(amp.faulted_captured), Fixed(amp.captured_factor, 2)});
  out += table.Render();
  Appendf(out,
          "\nFaulted-run retry breakdown: %llu retransmits, %llu timeouts, "
          "%llu failovers\n",
          static_cast<unsigned long long>(amp.faulted_counters.retransmits),
          static_cast<unsigned long long>(amp.faulted_counters.timeouts),
          static_cast<unsigned long long>(amp.faulted_counters.failovers));
  Appendf(out,
          "\nExpected shape: the faulted run multiplies the upstream query "
          "load\n(>= 2x) without any increase in client demand — resolution "
          "failure\ncreates traffic, which is the Fig. 3b mechanism.\n");
  return out;
}

constexpr PaperReport kReports[] = {
    {"table2", Table2},
    {"table3", Table3},
    {"fig1", Figure1},
    {"table4", [] { return GoogleSplitReport(2020); }},
    {"fig2", Figure2},
    {"fig3", Figure3},
    {"fig4", Figure4},
    {"table5", Table5},
    {"table6", Table6},
    {"fig5", [] { return FacebookSites(/*server A=*/0); }},
    {"fig6", Figure6},
    {"table7", [] { return GoogleSplitReport(2019); }},
    {"fig7", Figure7},
    {"fig8", [] { return FacebookSites(/*server B=*/1); }},
    {"fig3b", Figure3b},
};

}  // namespace

std::span<const PaperReport> PaperReports() { return kReports; }

// Figures 5 and 8 (Appendix B): Facebook's resolver sites located via
// reverse DNS, per-site volume and v4/v6 split, and the correlation between
// a site's median TCP-handshake RTT gap and its family preference. Server B
// sits at different anycast sites, so its per-site RTTs shift while the
// correlation holds. Server A's figure also claims the paper's Location 1:
// the top-ranked site sends no TCP.
std::string FacebookSitesReport(int server_id,
                                const std::vector<FacebookSiteStats>& sites) {
  const bool server_a = server_id == 0;
  std::string out =
      server_a ? Banner("Figure 5",
                        "Facebook resolver sites vs .nl server A (w2020)")
               : Banner("Figure 8 (Appendix B)",
                        "Facebook resolver sites vs .nl server B (w2020)");
  std::vector<std::string> headers = {"rank",     "site",
                                      "queries",  "share",
                                      "v6-share", "medRTTv4(ms)",
                                      "medRTTv6(ms)"};
  if (server_a) headers.push_back("dual-hosts");
  TextTable table(std::move(headers));
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.queries;
  auto rtt = [](const std::optional<double>& value) {
    return value ? Fixed(*value, 1) : std::string("no TCP");
  };
  int rank = 1;
  for (const auto& site : sites) {
    std::vector<std::string> row = {
        std::to_string(rank++), site.site, Count(site.queries),
        Percent(total == 0 ? 0
                           : static_cast<double>(site.queries) /
                                 static_cast<double>(total)),
        Percent(site.v6_share), rtt(site.median_rtt_v4_ms),
        rtt(site.median_rtt_v6_ms)};
    if (server_a) row.push_back(std::to_string(site.dual_stack_hosts));
    table.AddRow(std::move(row));
  }
  out += table.Render();

  // The paper's correlation check: sites whose v6 RTT clearly exceeds v4
  // must prefer v4.
  int checked = 0, consistent = 0;
  for (const auto& site : sites) {
    if (!site.median_rtt_v4_ms || !site.median_rtt_v6_ms) continue;
    double gap = *site.median_rtt_v6_ms - *site.median_rtt_v4_ms;
    if (gap > 20.0) {
      ++checked;
      consistent += site.v6_share < 0.35;
    }
  }
  if (!server_a) {
    Appendf(out,
            "\nRTT-preference consistency at server B: %d/%d penalized "
            "sites\nprefer IPv4 — same correlation as at server A (Fig. 5).\n",
            consistent, checked);
    return out;
  }
  Appendf(out,
          "\nRTT-preference consistency: %d/%d sites with a >20ms v6 RTT\n"
          "penalty prefer IPv4 (paper: locations 8-10 behave this way).\n",
          consistent, checked);
  const bool top_sends_no_tcp = !sites.empty() &&
                                !sites.front().median_rtt_v4_ms &&
                                !sites.front().median_rtt_v6_ms;
  out += top_sends_no_tcp
             ? "The top-ranked location sends no TCP, matching the paper's\n"
               "Location 1.\n"
             : "The top-ranked location does not match the paper's Location "
               "1,\nwhich sends no TCP.\n";
  Appendf(out, "Paper sites: 13 via rDNS; measured: %zu\n", sites.size());
  return out;
}

}  // namespace clouddns::analysis
