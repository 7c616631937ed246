// The context sidecar must round-trip every non-capture field of a
// ScenarioResult, and a LoadOrRun cache hit through the sidecar must be
// indistinguishable from the run that populated the cache.
#include "analysis/context_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/dataset_cache.h"
#include "cloud/scenario.h"
#include "../context_testutil.h"

namespace clouddns::analysis {
namespace {

cloud::ScenarioConfig SmallConfig() {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNz;
  config.year = 2019;
  config.client_queries = 20'000;
  config.zone_scale = 0.001;
  return config;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ContextCacheTest, RoundTripsEveryContextField) {
  auto original = cloud::RunScenario(SmallConfig());
  const std::string path = TempPath("clouddns_ctx_roundtrip.ctx");
  ASSERT_TRUE(SaveScenarioContextStatus(path, original).ok());

  cloud::ScenarioResult loaded;
  ASSERT_TRUE(LoadScenarioContextStatus(path, loaded).ok());
  std::remove(path.c_str());

  testutil::ExpectSameContext(loaded, original);
  EXPECT_EQ(loaded.client_queries_issued, original.client_queries_issued);
  EXPECT_EQ(loaded.leaf_queries, original.leaf_queries);
  EXPECT_EQ(loaded.client_queries_per_provider,
            original.client_queries_per_provider);
  EXPECT_EQ(loaded.robustness, original.robustness);
}

TEST(ContextCacheTest, RejectsMissingAndTruncatedFiles) {
  cloud::ScenarioResult result;
  EXPECT_EQ(
      LoadScenarioContextStatus(TempPath("clouddns_ctx_missing.ctx"), result)
          .code,
      base::io::IoCode::kNotFound);

  auto original = cloud::RunScenario(SmallConfig());
  const std::string path = TempPath("clouddns_ctx_truncated.ctx");
  ASSERT_TRUE(SaveScenarioContextStatus(path, original).ok());
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(LoadScenarioContextStatus(path, result).ok());
  std::remove(path.c_str());
}

TEST(ContextCacheTest, RejectsAMalformedConfigLine) {
  // A CRC-valid frame whose config holds a year outside the study, or a
  // line that is not a number: the loader must report corruption (so the
  // dataset cache quarantines and rebuilds), not build a context from it.
  const std::string path = TempPath("clouddns_ctx_bad_config.ctx");
  cloud::ScenarioResult original;
  original.config = SmallConfig();
  ASSERT_TRUE(SaveScenarioContextStatus(path, original).ok());
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(
      base::io::ReadFramedFile(path, base::io::kTagContext, payload).ok());
  const std::string text(payload.begin(), payload.end());
  ASSERT_NE(text.find("\nyear 2019\n"), std::string::npos);

  for (const char* forged : {"\nyear 1999\n", "\nyear 2019x\n", "\nyear\n"}) {
    SCOPED_TRACE(forged);
    std::string bad = text;
    bad.replace(bad.find("\nyear 2019\n"), 11, forged);
    ASSERT_TRUE(base::io::WriteFramedFile(
                    path, base::io::kTagContext,
                    std::vector<std::uint8_t>(bad.begin(), bad.end()))
                    .ok());
    cloud::ScenarioResult result;
    base::io::IoStatus status;
    EXPECT_NO_THROW(status = LoadScenarioContextStatus(path, result));
    EXPECT_EQ(status.code, base::io::IoCode::kPayloadCorrupt);
  }
  std::remove(path.c_str());
}

TEST(ContextCacheTest, CacheHitMatchesThePopulatingRun) {
  const std::string cache_dir = TempPath("clouddns_ctx_cache_dir");
  std::filesystem::remove_all(cache_dir);

  auto config = SmallConfig();
  auto first = LoadOrRun(config, cache_dir);   // cold: runs + writes sidecar
  auto second = LoadOrRun(config, cache_dir);  // warm: capture + sidecar only
  std::filesystem::remove_all(cache_dir);

  ASSERT_FALSE(first.records.empty());
  EXPECT_TRUE(first.records == second.records);
  EXPECT_EQ(first.client_queries_issued, second.client_queries_issued);
  EXPECT_EQ(first.leaf_queries, second.leaf_queries);
  EXPECT_EQ(first.client_queries_per_provider,
            second.client_queries_per_provider);
  EXPECT_EQ(first.robustness, second.robustness);
  testutil::ExpectSameContext(second, first);
}

}  // namespace
}  // namespace clouddns::analysis
