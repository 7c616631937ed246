// Figure 4 reproduction: the junk (non-NOERROR) ratio of each provider's
// queries at every vantage/year, next to the overall junk ratio (§3).
// Shapes: ccTLD junk is moderate and similar across .nl/.nz; B-Root junk
// is dominated by random-TLD probes overall, yet the CPs' *own* junk
// ratios at the root stay far below the root-wide figure.
#include <cstdio>

#include "common.h"

using namespace clouddns;

int main() {
  analysis::PrintBanner("Figure 4", "Clouds' DNS junk query ratio");
  for (cloud::Vantage vantage :
       {cloud::Vantage::kNl, cloud::Vantage::kNz, cloud::Vantage::kRoot}) {
    analysis::TextTable table({"year", "GOOGLE", "AMAZON", "MICROSOFT",
                               "FACEBOOK", "CLOUDFLARE", "ALL", "paper-ALL"});
    for (int year : {2018, 2019, 2020}) {
      auto result = analysis::LoadOrRun(bench::StandardConfig(vantage, year));
      // One fused pass yields every provider's ratio plus the overall one.
      auto ratios = analysis::ComputeJunkRatios(result);
      std::vector<std::string> row = {std::to_string(year)};
      for (cloud::Provider provider : cloud::MeasuredProviders()) {
        row.push_back(analysis::Percent(ratios.per_provider[provider]));
      }
      row.push_back(analysis::Percent(ratios.overall));
      row.push_back(
          analysis::Percent(analysis::paper::SectionThreeJunk(vantage, year)));
      table.AddRow(std::move(row));
    }
    std::printf("\n[%s]\n%s", std::string(cloud::ToString(vantage)).c_str(),
                table.Render().c_str());
  }
  std::printf(
      "\nExpected shape: similar CP junk ratios at .nl and .nz; overall\n"
      "B-Root junk is far higher than any CP's own junk ratio there.\n");
  return 0;
}
