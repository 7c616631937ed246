// The paper's tables and figures as one registry of text reports. Each
// entry renders one table or figure the way bench_paper prints it: a
// banner, the measured-vs-paper tables, and an "Expected shape" paragraph.
// Reports pull their datasets through LoadOrRun, so a capture week is
// simulated once and shared through the cache directory
// (CLOUDDNS_CACHE_DIR, default ./clouddns_cache); CLOUDDNS_QUERIES
// overrides each dataset's client-query budget.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/calibration.h"
#include "analysis/experiments.h"
#include "cloud/scenario.h"

namespace clouddns::analysis {

/// One capture week at `vantage` in `year`. Client demand grows across
/// the study years in proportion to the paper's Table 3 totals
/// (normalized to 2018), so the year-over-year growth directions
/// reproduce.
inline cloud::ScenarioConfig StandardConfig(cloud::Vantage vantage, int year) {
  cloud::ScenarioConfig config;
  config.vantage = vantage;
  config.year = year;
  std::uint64_t base =
      vantage == cloud::Vantage::kRoot ? 220'000 : 260'000;
  auto t3_2018 = *paper::Table3(vantage, 2018);
  auto t3_now = *paper::Table3(vantage, year);
  config.client_queries = static_cast<std::uint64_t>(
      static_cast<double>(base) * t3_now.queries_total_b /
      t3_2018.queries_total_b);
  return config;
}

/// The Fig. 3 longitudinal window: September 2019 through April 2020,
/// Google's fleet only, monthly buckets. The .nz variant injects the
/// February 2020 cyclic-dependency misconfiguration.
inline cloud::ScenarioConfig LongitudinalGoogleConfig(cloud::Vantage vantage) {
  cloud::ScenarioConfig config;
  config.vantage = vantage;
  config.year = 2020;
  config.client_queries = 500'000;
  config.window_start = sim::TimeFromCivil({2019, 9, 1});
  config.window_end = sim::TimeFromCivil({2020, 5, 1});
  config.google_only = true;
  config.inject_cyclic_event = vantage == cloud::Vantage::kNz;
  return config;
}

struct PaperReport {
  const char* id;  ///< "table2".."table7", "fig1".."fig8", "fig3b".
  std::string (*render)();
};

/// Every report, in the order bench_output.txt lists them.
[[nodiscard]] std::span<const PaperReport> PaperReports();

/// The Fig. 5 (server A, `server_id` 0) and Fig. 8 (server B, 1) report
/// over precomputed per-site stats, ranked as ComputeFacebookSites
/// returns them.
[[nodiscard]] std::string FacebookSitesReport(
    int server_id, const std::vector<FacebookSiteStats>& sites);

}  // namespace clouddns::analysis
