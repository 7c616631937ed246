// The context sidecar must round-trip every non-capture field of a
// ScenarioResult, and a LoadOrRun cache hit through the sidecar must be
// indistinguishable from the run that populated the cache. The reader
// decodes untrusted bytes, so it also gets a seeded mutation loop.
#include "analysis/context_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
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

  EXPECT_TRUE(cloud::SameDataset(loaded.config, original.config));
  EXPECT_EQ(loaded.config.threads, 0u);
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

/// Writes `bytes` to `path` as they are: a mutant need not be durable.
void WriteRaw(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One seeded mutation of `bytes`: a truncation, one to four bit flips, a
/// zeroed range or up to 16 appended bytes.
std::vector<std::uint8_t> Mutate(std::vector<std::uint8_t> bytes,
                                 std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      bytes.resize(rng() % bytes.size());
      break;
    case 1:
      for (int f = 1 + static_cast<int>(rng() % 4); f > 0; --f) {
        bytes[rng() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng() % 8));
      }
      break;
    case 2: {
      const std::size_t from = rng() % bytes.size();
      const std::size_t to = from + 1 + rng() % (bytes.size() - from);
      std::fill(bytes.begin() + from, bytes.begin() + to, 0);
      break;
    }
    default:
      for (int n = 1 + static_cast<int>(rng() % 16); n > 0; --n) {
        bytes.push_back(static_cast<std::uint8_t>(rng()));
      }
      break;
  }
  return bytes;
}

TEST(ContextCacheTest, MutatedSidecarsFailTypedOrLoadAnAcceptedConfig) {
  // Every mutant of the framed file, and of the text payload inside an
  // intact frame, either fails with a typed code or loads a config that
  // AcceptedConfig admits. Nothing throws.
  cloud::ScenarioResult original;
  original.config = SmallConfig();
  original.client_queries_issued = 20'000;
  original.client_queries_per_provider = {{"Google", 1234}, {"Other", 5}};
  const std::string path = TempPath("clouddns_ctx_mutant.ctx");
  ASSERT_TRUE(SaveScenarioContextStatus(path, original).ok());
  std::vector<std::uint8_t> framed;
  ASSERT_TRUE(base::io::ReadFileBytes(path, framed).ok());
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(
      base::io::ReadFramedFile(path, base::io::kTagContext, payload).ok());

  std::mt19937_64 rng(0x4354582000000004ull);
  for (int round = 0; round < 1000; ++round) {
    for (bool reframed : {false, true}) {
      SCOPED_TRACE("round " + std::to_string(round) +
                   (reframed ? ", re-framed payload" : ", framed file"));
      if (reframed) {
        ASSERT_TRUE(base::io::WriteFramedFile(path, base::io::kTagContext,
                                              Mutate(payload, rng))
                        .ok());
      } else {
        WriteRaw(path, Mutate(framed, rng));
      }
      cloud::ScenarioResult loaded;
      base::io::IoStatus status;
      EXPECT_NO_THROW(status = LoadScenarioContextStatus(path, loaded));
      if (status.ok()) {
        EXPECT_TRUE(AcceptedConfig(loaded.config));
        continue;
      }
      const base::io::IoCode code = status.code;
      EXPECT_TRUE(code == base::io::IoCode::kBadFrame ||
                  code == base::io::IoCode::kBadVersion ||
                  code == base::io::IoCode::kBadTag ||
                  code == base::io::IoCode::kTruncated ||
                  code == base::io::IoCode::kTrailerCorrupt ||
                  code == base::io::IoCode::kPayloadCorrupt)
          << status.ToString();
    }
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
