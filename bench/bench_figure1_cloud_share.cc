// Figure 1 reproduction: share of all queries originating from the five
// cloud providers' 20 ASes, per vantage and year. The headline results:
// the five CPs send ~30% of ccTLD queries but only ~8.7% of B-Root's.
#include <cstdio>

#include "common.h"
#include "entrada/topk.h"

using namespace clouddns;

namespace {

// §4.1's textual claim: "in the 2020 dataset, the first CP was in a 5th
// place rank" at B-Root, behind large ISPs. Rank source ASes with the
// Space-Saving sketch and report where the first cloud AS lands.
void ReportRootAsRanking(const cloud::ScenarioResult& result) {
  entrada::SpaceSaving topk(256);
  for (const auto& record : result.records.Flatten()) {
    auto asn = result.asdb.OriginAs(record.src);
    topk.Add(asn ? "AS" + std::to_string(*asn) : "AS?");
  }
  std::printf("\nTop source ASes at B-Root %d (Space-Saving sketch):\n",
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
    std::printf("  #%-2d %-9s %8s queries  %s\n", rank, entry.key.c_str(),
                analysis::Count(entry.count).c_str(),
                is_cp ? std::string(cloud::ToString(provider)).c_str()
                      : "(ISP)");
  }
  std::printf("First cloud AS ranks #%d (paper, 2020: #5 behind ISPs from\n"
              "India, France and Indonesia).\n",
              first_cp_rank == 0 ? -1 : first_cp_rank);
}

}  // namespace

int main() {
  analysis::PrintBanner("Figure 1", "Clouds' query ratio per ccTLD and B-Root");

  for (cloud::Vantage vantage :
       {cloud::Vantage::kNl, cloud::Vantage::kNz, cloud::Vantage::kRoot}) {
    analysis::TextTable table({"year", "GOOGLE", "AMAZON", "MICROSOFT",
                               "FACEBOOK", "CLOUDFLARE", "5 CPs", "paper~"});
    for (int year : {2018, 2019, 2020}) {
      auto result = analysis::LoadOrRun(bench::StandardConfig(vantage, year));
      auto shares = analysis::ComputeCloudShares(result);
      std::vector<std::string> row = {std::to_string(year)};
      for (std::size_t i = 0; i + 1 < shares.size(); ++i) {
        row.push_back(analysis::Percent(shares[i].share));
      }
      row.push_back(analysis::Percent(shares.back().share));
      row.push_back(
          analysis::Percent(analysis::paper::Figure1CloudShare(vantage, year)));
      table.AddRow(std::move(row));
    }
    std::printf("\n[%s]\n%s", std::string(cloud::ToString(vantage)).c_str(),
                table.Render().c_str());
    if (vantage == cloud::Vantage::kRoot) {
      // The rank sketch consumes records in merged order, so this is the
      // one figure1 consumer that flattens the sharded capture.
      ReportRootAsRanking(
          analysis::LoadOrRun(bench::StandardConfig(vantage, 2020)));
    }
  }
  std::printf(
      "\nExpected shape: 5 CPs carry ~30%% of ccTLD queries (Google the\n"
      "largest, and larger at .nl than .nz), but under 10%% of B-Root's —\n"
      "the root's view is dominated by the long tail of other ASes.\n");
  return 0;
}
