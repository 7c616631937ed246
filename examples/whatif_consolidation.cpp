// What-if projection: the paper asks "how centralized is DNS traffic
// becoming?" — this example turns the question around and asks the
// simulator how the measured concentration responds if cloud providers'
// client bases keep growing relative to the ISP long tail. Sweeps a
// consolidation factor over the calibrated 2020 .nl world and reports the
// Fig.-1-style share plus the single-point-of-failure framing from the
// paper's introduction (how much of the ccTLD's query stream depends on
// the top provider / top five). Exits 1 unless the top-five share rises
// with every step of the factor.
#include <cstdio>
#include <utility>

#include "analysis/experiments.h"
#include "analysis/report.h"
#include "cloud/scenario.h"
#include "entrada/plan.h"

using namespace clouddns;

int main() {
  analysis::TextTable table({"consolidation", "5-CP share", "Google share",
                             "largest-AS share", "distinct ASes"});
  double previous_share = 0;
  bool rises = true;
  for (double factor : {0.5, 1.0, 2.0, 4.0}) {
    cloud::ScenarioConfig config;  // .nl w2020, the defaults
    config.client_queries = 60'000;
    config.consolidation_factor = factor;
    auto result = cloud::RunScenario(config);

    auto shares = analysis::ComputeCloudShares(result);
    entrada::AnalysisPlan plan;
    plan.SetAsDatabase(result.asdb);
    const auto as_handle =
        plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::SrcAs());
    plan.Execute(result.records);
    const entrada::Aggregation& by_as = plan.GroupResult(as_handle);
    std::uint64_t largest = 0;
    for (const auto& [asn, count] : by_as.counts) {
      largest = std::max(largest, count);
    }
    rises = rises && shares.back().share > std::exchange(previous_share,
                                                         shares.back().share);
    char label[16];
    std::snprintf(label, sizeof label, "x%.1f", factor);
    table.AddRow({label, analysis::Percent(shares.back().share),
                  analysis::Percent(shares[0].share),
                  analysis::Percent(static_cast<double>(largest) /
                                    static_cast<double>(result.records.size())),
                  analysis::Count(by_as.counts.size())});
  }
  std::printf("%s", table.Render().c_str());
  std::printf(
      "\nReading: at the calibrated operating point (x1.0) five providers\n"
      "carry ~1/3 of the ccTLD's queries and doubling their client base\n"
      "pushes that toward half, while the distinct-AS count barely moves.\n"
      "\ncheck: [%s] the 5-CP share rises with every consolidation step\n",
      rises ? "ok" : "FAIL");
  return rises ? 0 : 1;
}
