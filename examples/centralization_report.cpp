// Full centralization report for one capture week — the paper's §4 in one
// run: provider shares (Fig. 1), transport mix (Table 5), RR types
// (Fig. 2), junk ratios (Fig. 4) and dataset totals (Table 3).
//
// Usage: centralization_report [nl|nz|root] [2018|2019|2020] [queries]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/experiments.h"
#include "analysis/report.h"
#include "cloud/scenario.h"

using namespace clouddns;

int main(int argc, char** argv) {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNl;
  if (argc > 1) {
    if (std::strcmp(argv[1], "nz") == 0) config.vantage = cloud::Vantage::kNz;
    if (std::strcmp(argv[1], "root") == 0) {
      config.vantage = cloud::Vantage::kRoot;
    }
  }
  config.year = argc > 2 ? std::atoi(argv[2]) : 2020;
  config.client_queries =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 150'000;

  std::printf("Simulating %s %d with %llu client queries...\n",
              std::string(cloud::ToString(config.vantage)).c_str(),
              config.year,
              static_cast<unsigned long long>(config.client_queries));
  cloud::ScenarioResult result = cloud::RunScenario(config);

  std::fputs(analysis::Banner("Dataset", "Table 3 style totals").c_str(),
             stdout);
  auto stats = analysis::ComputeDatasetStats(result);
  std::printf("queries=%s valid=%s (%s) resolvers=%s ases=%s\n",
              analysis::Count(stats.queries_total).c_str(),
              analysis::Count(stats.queries_valid).c_str(),
              analysis::Percent(static_cast<double>(stats.queries_valid) /
                                static_cast<double>(stats.queries_total))
                  .c_str(),
              analysis::Count(stats.resolvers_exact).c_str(),
              analysis::Count(stats.ases_exact).c_str());

  std::fputs(
      analysis::Banner("Centralization", "Figure 1 style provider shares")
          .c_str(),
      stdout);
  auto shares = analysis::ComputeCloudShares(result);
  analysis::TextTable share_table({"provider", "queries", "share"});
  for (const auto& share : shares) {
    std::string name = &share == &shares.back()
                           ? "ALL 5 CPs"
                           : std::string(cloud::ToString(share.provider));
    share_table.AddRow({name, analysis::Count(share.queries),
                        analysis::Percent(share.share)});
  }
  std::printf("%s", share_table.Render().c_str());

  std::fputs(
      analysis::Banner("Behaviour", "Table 5 / Fig. 2 / Fig. 4 per provider")
          .c_str(),
      stdout);
  analysis::TextTable behaviour({"provider", "IPv6", "TCP", "junk", "NS", "DS",
                                 "DNSKEY"});
  auto mixes = analysis::ComputeTransportMixes(result);
  auto rr_mixes = analysis::ComputeRrTypeMixes(result);
  auto junk = analysis::ComputeJunkRatios(result);
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    const auto& mix = mixes[provider];
    auto& rr = rr_mixes[provider];
    behaviour.AddRow({std::string(cloud::ToString(provider)),
                      analysis::Percent(mix.ipv6), analysis::Percent(mix.tcp),
                      analysis::Percent(junk.per_provider[provider]),
                      analysis::Percent(rr["NS"]), analysis::Percent(rr["DS"]),
                      analysis::Percent(rr["DNSKEY"])});
  }
  std::printf("%s", behaviour.Render().c_str());

  std::printf("\nInterpretation guide: Google/Cloudflare dual-stack, pure\n"
              "UDP; Microsoft v4-only with no DNSSEC fetches; Facebook v6-\n"
              "heavy with a real TCP share; NS-heavy mixes indicate QNAME\n"
              "minimization (2020 captures).\n");
  return 0;
}
