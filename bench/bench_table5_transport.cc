// Table 5 reproduction: per-provider IPv4/IPv6 and UDP/TCP query ratios at
// both ccTLDs, all three years — printed against the paper's exact values.
#include <cstdio>

#include "common.h"

using namespace clouddns;

int main() {
  analysis::PrintBanner("Table 5", "Query distribution per CP for ccTLDs");
  for (cloud::Vantage vantage : {cloud::Vantage::kNl, cloud::Vantage::kNz}) {
    analysis::TextTable table({"provider", "year", "IPv4", "(paper)", "IPv6",
                               "(paper)", "UDP", "(paper)", "TCP", "(paper)"});
    // One fused pass per dataset covers every provider's mix.
    std::map<int, std::map<cloud::Provider, analysis::TransportMix>> by_year;
    for (int year : {2018, 2019, 2020}) {
      by_year[year] = analysis::ComputeTransportMixes(
          analysis::LoadOrRun(bench::StandardConfig(vantage, year)));
    }
    for (cloud::Provider provider : cloud::MeasuredProviders()) {
      for (int year : {2018, 2019, 2020}) {
        const auto& mix = by_year[year][provider];
        auto paper = *analysis::paper::Table5(provider, vantage, year);
        table.AddRow({bench::ProviderName(provider), std::to_string(year),
                      analysis::Ratio(mix.ipv4), analysis::Ratio(paper.ipv4),
                      analysis::Ratio(mix.ipv6), analysis::Ratio(paper.ipv6),
                      analysis::Ratio(mix.udp), analysis::Ratio(paper.udp),
                      analysis::Ratio(mix.tcp), analysis::Ratio(paper.tcp)});
      }
    }
    std::printf("\n[%s]\n%s", std::string(cloud::ToString(vantage)).c_str(),
                table.Render().c_str());
  }
  std::printf(
      "\nExpected shape: Google/Cloudflare near-even v4:v6 and ~pure UDP;\n"
      "Amazon and Microsoft essentially v4-only (Amazon grows a small TCP\n"
      "share); Facebook v6-majority from 2019 with a material TCP share\n"
      "driven by its 512-byte EDNS frontends.\n");
  return 0;
}
