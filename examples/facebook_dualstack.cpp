// The §4.3 dual-stack methodology, step by step:
//   1. capture a week of .nl traffic and keep Facebook's source addresses;
//   2. reverse-lookup every address (its PTR record);
//   3. read the site (airport code) out of the PTR name;
//   4. match v4/v6 addresses with identical PTR names -> dual-stack hosts;
//   5. correlate per-site median TCP-handshake RTTs with the v4/v6 split.
#include <algorithm>
#include <cstdio>

#include "analysis/experiments.h"
#include "analysis/report.h"
#include "cloud/scenario.h"

using namespace clouddns;

int main() {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNl;
  config.year = 2020;
  config.client_queries = 150'000;
  std::printf("Simulating .nl w2020...\n");
  auto result = cloud::RunScenario(config);

  // Step 2-3 on a single address, to show the moving parts.
  for (const auto& record : result.records.TimeOrderedCopy()) {
    if (analysis::ProviderOfRecord(result, record) !=
        cloud::Provider::kFacebook) {
      continue;
    }
    auto ptr = std::find_if(
        result.ptr_records.begin(), result.ptr_records.end(),
        [&record](const auto& entry) { return entry.first == record.src; });
    if (ptr == result.ptr_records.end()) continue;
    std::printf("\nExample reverse lookup:\n  %s -> %s (site tag: %s)\n",
                record.src.ToString().c_str(), ptr->second.ToString().c_str(),
                analysis::SiteTagFromPtr(ptr->second)->c_str());
    break;
  }

  // Steps 1-5, aggregated.
  auto sites = analysis::ComputeFacebookSites(result, /*server A=*/0);
  analysis::TextTable table(
      {"site", "queries", "v6-share", "medRTTv4", "medRTTv6", "dual-hosts",
       "reading"});
  for (const auto& site : sites) {
    std::string reading;
    if (!site.median_rtt_v4_ms && !site.median_rtt_v6_ms) {
      reading = "no TCP at all (paper's Location 1)";
    } else if (site.median_rtt_v4_ms && site.median_rtt_v6_ms &&
               *site.median_rtt_v6_ms > *site.median_rtt_v4_ms + 20) {
      reading = "slow v6 path -> prefers IPv4";
    } else {
      reading = "similar RTTs -> even split";
    }
    auto rtt = [](const std::optional<double>& v) {
      return v ? analysis::Fixed(*v, 1) + "ms" : std::string("-");
    };
    table.AddRow({site.site, analysis::Count(site.queries),
                  analysis::Percent(site.v6_share),
                  rtt(site.median_rtt_v4_ms), rtt(site.median_rtt_v6_ms),
                  std::to_string(site.dual_stack_hosts), reading});
  }
  std::printf("\n%s", table.Render().c_str());
  std::printf("\n%zu PTR records in the scenario's reverse DNS.\n",
              result.ptr_records.size());
  return 0;
}
