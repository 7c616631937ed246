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

  EXPECT_EQ(loaded.window_start, original.window_start);
  EXPECT_EQ(loaded.window_end, original.window_end);
  EXPECT_EQ(loaded.zone_domain_count, original.zone_domain_count);
  EXPECT_EQ(loaded.zone_domains_by_tld, original.zone_domains_by_tld);

  ASSERT_EQ(loaded.servers.size(), original.servers.size());
  for (std::size_t i = 0; i < loaded.servers.size(); ++i) {
    EXPECT_EQ(loaded.servers[i].id, original.servers[i].id);
    EXPECT_EQ(loaded.servers[i].label, original.servers[i].label);
    EXPECT_EQ(loaded.servers[i].captured, original.servers[i].captured);
    EXPECT_EQ(loaded.servers[i].anycast, original.servers[i].anycast);
    EXPECT_EQ(loaded.servers[i].sites, original.servers[i].sites);
  }

  EXPECT_EQ(loaded.asdb.announcements(), original.asdb.announcements());
  auto loaded_as = loaded.asdb.AllInfo();
  auto original_as = original.asdb.AllInfo();
  ASSERT_EQ(loaded_as.size(), original_as.size());
  for (std::size_t i = 0; i < loaded_as.size(); ++i) {
    EXPECT_EQ(loaded_as[i].asn, original_as[i].asn);
    EXPECT_EQ(loaded_as[i].org, original_as[i].org);
  }
  // Spot-check that lookups behave identically on real capture sources.
  const capture::CaptureBuffer records = original.records.FlattenCopy();
  for (std::size_t i = 0; i < records.size(); i += 997) {
    const auto& src = records[i].src;
    EXPECT_EQ(loaded.asdb.OriginAs(src), original.asdb.OriginAs(src));
    EXPECT_EQ(loaded.google_public.Lookup(src),
              original.google_public.Lookup(src));
  }
  EXPECT_EQ(loaded.google_public.Entries(), original.google_public.Entries());

  ASSERT_EQ(loaded.ptr_records.size(), original.ptr_records.size());
  for (std::size_t i = 0; i < loaded.ptr_records.size(); ++i) {
    EXPECT_EQ(loaded.ptr_records[i].first, original.ptr_records[i].first);
    EXPECT_TRUE(
        loaded.ptr_records[i].second.Equals(original.ptr_records[i].second));
  }

  EXPECT_EQ(loaded.client_queries_issued, original.client_queries_issued);
  EXPECT_EQ(loaded.leaf_queries, original.leaf_queries);
  EXPECT_EQ(loaded.client_queries_per_provider,
            original.client_queries_per_provider);
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

TEST(ContextCacheTest, RejectsForgedPtrCountWithoutThrowing) {
  // A CRC-valid frame whose text declares far more PTR records than the
  // payload could hold: the loader must report corruption (so the dataset
  // cache quarantines and rebuilds), not try to allocate for the count.
  const std::string path = TempPath("clouddns_ctx_forged_ptr.ctx");
  ASSERT_TRUE(SaveScenarioContextStatus(path, cloud::ScenarioResult{}).ok());
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(
      base::io::ReadFramedFile(path, base::io::kTagContext, payload).ok());
  std::string text(payload.begin(), payload.end());
  const std::size_t at = text.find("\nptr 0\n");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 7, "\nptr 4611686018427387904\n");
  ASSERT_TRUE(base::io::WriteFramedFile(
                  path, base::io::kTagContext,
                  std::vector<std::uint8_t>(text.begin(), text.end()))
                  .ok());

  cloud::ScenarioResult result;
  base::io::IoStatus status;
  EXPECT_NO_THROW(status = LoadScenarioContextStatus(path, result));
  EXPECT_EQ(status.code, base::io::IoCode::kPayloadCorrupt);
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
  EXPECT_EQ(first.zone_domains_by_tld, second.zone_domains_by_tld);
  EXPECT_EQ(first.asdb.announcements(), second.asdb.announcements());
  const capture::CaptureBuffer records = first.records.FlattenCopy();
  for (std::size_t i = 0; i < records.size(); i += 991) {
    const auto& src = records[i].src;
    EXPECT_EQ(first.asdb.OriginAs(src), second.asdb.OriginAs(src));
  }
}

}  // namespace
}  // namespace clouddns::analysis
