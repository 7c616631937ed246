// BuildScenarioContext rebuilds a cold run's context from the config
// alone: the warm dataset load trusts it in place of a stored copy.
#include <gtest/gtest.h>

#include "analysis/paper_reports.h"
#include "cloud/scenario.h"
#include "../context_testutil.h"

namespace clouddns::cloud {
namespace {

std::vector<ScenarioConfig> Configs() {
  std::vector<ScenarioConfig> configs;
  for (Vantage vantage : {Vantage::kNl, Vantage::kNz, Vantage::kRoot}) {
    for (int year : {2018, 2019, 2020}) {
      ScenarioConfig config;
      config.vantage = vantage;
      config.year = year;
      configs.push_back(config);
    }
  }
  // Google's fleet only, over a longitudinal window.
  configs.push_back(analysis::LongitudinalGoogleConfig(Vantage::kNz));
  // The q-min ablation skips a Bernoulli draw per ISP engine, which moves
  // the fleet RNG stream and with it the PTR names.
  ScenarioConfig qmin_off = configs[2];
  qmin_off.qmin_override_off = true;
  configs.push_back(qmin_off);
  // The Fig. 3b faulted .nz weeks.
  ScenarioConfig event = configs[5];
  event.window_start = sim::TimeFromCivil({2020, 2, 3});
  event.window_end = sim::TimeFromCivil({2020, 2, 27});
  event.inject_cyclic_event = true;
  event.fault_preset = FaultPreset::kNzEventLoss;
  configs.push_back(event);
  for (ScenarioConfig& config : configs) {
    config.client_queries = 2'000;
    config.zone_scale = 0.0005;
  }
  return configs;
}

TEST(ScenarioContextTest, MatchesAColdRunAtOneAndEightThreads) {
  const std::vector<ScenarioConfig> configs = Configs();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    ScenarioConfig config = configs[i];
    const ScenarioResult context = BuildScenarioContext(config);
    EXPECT_TRUE(context.records.empty());
    EXPECT_EQ(context.client_queries_issued, 0u);
    for (std::size_t threads : {1u, 8u}) {
      config.threads = threads;
      const ScenarioResult run = RunScenario(config);
      ASSERT_FALSE(run.ptr_records.empty());
      testutil::ExpectSameContext(context, run);
    }
  }
}

}  // namespace
}  // namespace clouddns::cloud
