// End-to-end storage robustness for the self-healing dataset cache
// (DESIGN.md §14).
//
// Four suites:
//   - The corruption matrix: truncated / bit-flipped / zero-length /
//     unframed damage to each cached artifact (columnar capture, `.ctx`
//     context sidecar, `.shards` shard index), each loaded at 1/2/4/8
//     worker threads. Every combination must quarantine-and-rebuild, and
//     the report rendered from the result — capture analytics plus the
//     context's query accounting — must stay byte-identical to the
//     fault-free baseline.
//   - Lost artifacts: a deleted or corrupted `.ctx` or `.shards` must
//     come back with cold-identical accounting and shard structure, and
//     be written again; the `.cdns` holds the shards back to back.
//   - Thread invariance: a cold build writes byte-identical `.cdns`,
//     `.ctx` and `.shards` files at 1 and 8 worker threads.
//   - The seeded fault sweep: all nine StorageFaultKind values injected
//     across the columnar, pcap, sidecar, and cache write paths. Zero
//     crashes, every silent corruption detected and quarantined on the
//     next read, post-rebuild reports byte-identical to the baseline.
//
// Scratch location honours CLOUDDNS_STORAGE_SCRATCH (CI points it at an
// upload-on-failure artifact directory so quarantined files and their
// reason breadcrumbs survive a red run); directories are only removed
// when the test body passes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataset_cache.h"
#include "base/io.h"
#include "capture/columnar.h"
#include "capture/pcap.h"
#include "capture/sharded.h"
#include "cloud/scenario.h"
#include "entrada/plan.h"

namespace clouddns::analysis {
namespace {

namespace fs = std::filesystem;

cloud::ScenarioConfig SmallConfig(std::size_t threads = 1) {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNz;
  config.year = 2019;
  config.client_queries = 3'000;
  config.zone_scale = 0.001;
  config.threads = threads;
  return config;
}

std::string ScratchDir(const char* name) {
  if (const char* scratch = std::getenv("CLOUDDNS_STORAGE_SCRATCH")) {
    return (fs::path(scratch) / name).string();
  }
  return (fs::path(::testing::TempDir()) / name).string();
}

/// The analysis-report view of a result: everything a paper figure would
/// consume, rendered deterministically from the capture stream and the
/// context's query accounting (Table 3's client-query, upstream and leaf
/// columns).
std::string ReportDigest(const cloud::ScenarioResult& result,
                         std::size_t threads) {
  entrada::AnalysisPlan plan;
  auto by_qtype =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::Qtype());
  auto by_rcode =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::RcodeKey());
  auto sources = plan.Distinct(entrada::FilterSpec::Valid(),
                               entrada::KeySpec::SrcAddress());
  plan.Execute(result.records, threads);

  std::ostringstream out;
  out << "records " << result.records.size() << "\n";
  out << "crc "
      << base::io::Crc32c(
             capture::EncodeColumnar(result.records.TimeOrderedCopy()))
      << "\n";
  out << "sources " << plan.DistinctResult(sources) << "\n";
  for (const auto& [key, n] : plan.GroupResult(by_qtype).counts) {
    out << "qtype " << key << " " << n << "\n";
  }
  for (const auto& [key, n] : plan.GroupResult(by_rcode).counts) {
    out << "rcode " << key << " " << n << "\n";
  }
  out << "issued " << result.client_queries_issued << "\n";
  out << "leaf " << result.leaf_queries << "\n";
  for (const auto& [provider, n] : result.client_queries_per_provider) {
    out << "provider " << provider << " " << n << "\n";
  }
  const cloud::RobustnessCounters& robust = result.robustness;
  out << "robust " << robust.upstream_queries << " " << robust.retransmits
      << " " << robust.timeouts << " " << robust.failovers << "\n";
  return out.str();
}

/// Each shard buffer equal, in order: the simulation's shard structure.
void ExpectSameShards(const capture::ShardedCapture& got,
                      const capture::ShardedCapture& want) {
  ASSERT_EQ(got.shard_count(), want.shard_count());
  for (std::size_t s = 0; s < want.shard_count(); ++s) {
    EXPECT_EQ(got.shard(s), want.shard(s)) << "shard " << s;
  }
}

enum class Damage { kTruncate, kBitFlip, kZeroLength, kUnframed };

const char* ToString(Damage damage) {
  switch (damage) {
    case Damage::kTruncate: return "truncate";
    case Damage::kBitFlip: return "bit-flip";
    case Damage::kZeroLength: return "zero-length";
    case Damage::kUnframed: return "unframed";
  }
  return "unknown";
}

void InflictDamage(const std::string& path, Damage damage) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(base::io::ReadFileBytes(path, bytes).ok()) << path;
  switch (damage) {
    case Damage::kTruncate: {
      std::error_code ec;
      fs::resize_file(path, bytes.size() / 2, ec);
      ASSERT_FALSE(ec) << path;
      return;
    }
    case Damage::kBitFlip: {
      bytes[bytes.size() / 2] ^= 0x04;
      ASSERT_TRUE(base::io::WriteFileAtomic(path, bytes).ok()) << path;
      return;
    }
    case Damage::kZeroLength: {
      std::error_code ec;
      fs::resize_file(path, 0, ec);
      ASSERT_FALSE(ec) << path;
      return;
    }
    case Damage::kUnframed: {
      // What a pre-framing cache looks like: the bare payload on disk.
      std::vector<std::uint8_t> payload;
      bool framed = false;
      ASSERT_TRUE(
          base::io::UnwrapFrame(bytes, base::io::kTagAny, payload, framed)
              .ok())
          << path;
      ASSERT_TRUE(framed) << path << " must be framed before stripping";
      ASSERT_TRUE(base::io::WriteFileAtomic(path, payload).ok()) << path;
      return;
    }
  }
}

struct ScopedInjector {
  explicit ScopedInjector(base::io::StorageFaultInjector& injector) {
    base::io::SetStorageFaultInjector(&injector);
  }
  ~ScopedInjector() { base::io::SetStorageFaultInjector(nullptr); }
};

// ---------------------------------------------------------------------------
// Corruption matrix

TEST(StorageCorruptionMatrixTest, EveryArtifactDamageThreadComboRecovers) {
  const std::string dir = ScratchDir("clouddns_storage_matrix");
  fs::remove_all(dir);

  auto config = SmallConfig();
  // Resolve the env-driven query budget the same way LoadOrRun does, so
  // the artifact paths below match what the cache actually writes.
  config.client_queries = EffectiveQueryBudget(config.client_queries);
  const std::string key = CacheKey(config);
  const std::string capture_path = dir + "/" + key + ".cdns";
  const std::string context_path = dir + "/" + key + ".ctx";
  const std::string shard_path = dir + "/" + key + ".shards";

  const cloud::ScenarioResult baseline_result = LoadOrRun(config, dir);
  const std::string baseline = ReportDigest(baseline_result, 1);
  ASSERT_FALSE(baseline_result.records.empty());
  ASSERT_TRUE(fs::exists(capture_path));
  ASSERT_TRUE(fs::exists(context_path));
  ASSERT_TRUE(fs::exists(shard_path));

  const struct {
    const char* name;
    const std::string& path;
  } artifacts[] = {{"capture", capture_path},
                   {"context", context_path},
                   {"shard-index", shard_path}};
  const Damage damages[] = {Damage::kTruncate, Damage::kBitFlip,
                            Damage::kZeroLength, Damage::kUnframed};

  for (const auto& artifact : artifacts) {
    for (Damage damage : damages) {
      for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::string(artifact.name) + " x " + ToString(damage) +
                     " x threads=" + std::to_string(threads));
        // Each recovery rewrites the artifact framed, so the damage is
        // re-inflicted on what the previous recovery rebuilt.
        InflictDamage(artifact.path, damage);
        if (::testing::Test::HasFatalFailure()) return;

        auto run_config = SmallConfig(threads);
        const cloud::ScenarioResult result = LoadOrRun(run_config, dir);
        EXPECT_EQ(ReportDigest(result, threads), baseline);
        ExpectSameShards(result.records, baseline_result.records);
        EXPECT_EQ(result.storage.detected, 1u);
        EXPECT_EQ(result.storage.quarantined, 1u);
        EXPECT_EQ(result.storage.rebuilt, 1u);
        EXPECT_EQ(result.storage.reverified, 1u);
      }
    }
  }

  // Quarantine holds one artifact + one reason breadcrumb per detection:
  // 3 artifacts x 4 damages x 4 thread counts.
  std::size_t quarantined_files = 0;
  for (const auto& entry : fs::directory_iterator(dir + "/.quarantine")) {
    (void)entry;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 2u * 3u * 4u * 4u);
  fs::remove_all(dir);
}

TEST(StorageCorruptionMatrixTest, StrandedTempFilesAreSweptOnOpen) {
  const std::string dir = ScratchDir("clouddns_storage_tmp_sweep");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::uint8_t> torn = {0xDE, 0xAD};
  ASSERT_TRUE(
      base::io::WriteFileAtomic(dir + "/crashed_writer.cdns.tmp", torn).ok());

  const cloud::ScenarioResult result = LoadOrRun(SmallConfig(), dir);
  EXPECT_EQ(result.storage.tmp_cleaned, 1u);
  EXPECT_FALSE(fs::exists(dir + "/crashed_writer.cdns.tmp"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Lost artifacts: a missing or corrupt sidecar means a full cold rebuild.

void ExpectColdAccounting(const cloud::ScenarioResult& result,
                          const cloud::ScenarioResult& cold) {
  EXPECT_EQ(result.client_queries_issued, cold.client_queries_issued);
  EXPECT_EQ(result.leaf_queries, cold.leaf_queries);
  EXPECT_EQ(result.client_queries_per_provider,
            cold.client_queries_per_provider);
  EXPECT_EQ(result.robustness, cold.robustness);
}

TEST(StorageLostArtifactTest, ContextComesBackWithColdAccounting) {
  const std::string dir = ScratchDir("clouddns_storage_lost_context");
  fs::remove_all(dir);
  auto config = SmallConfig();
  config.client_queries = EffectiveQueryBudget(config.client_queries);
  const std::string context_path = dir + "/" + CacheKey(config) + ".ctx";

  const cloud::ScenarioResult cold = LoadOrRun(config, dir);
  ASSERT_GT(cold.client_queries_issued, 0u);
  ASSERT_GT(cold.leaf_queries, 0u);
  for (bool corrupt : {false, true}) {
    SCOPED_TRACE(corrupt ? "corrupted .ctx" : "deleted .ctx");
    if (corrupt) {
      InflictDamage(context_path, Damage::kBitFlip);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      ASSERT_TRUE(fs::remove(context_path));
    }
    const cloud::ScenarioResult rebuilt = LoadOrRun(config, dir);
    ExpectColdAccounting(rebuilt, cold);
    EXPECT_EQ(rebuilt.storage.detected, corrupt ? 1u : 0u);
    ASSERT_TRUE(fs::exists(context_path));

    // The rewritten sidecar serves the next load warm.
    const cloud::ScenarioResult warm = LoadOrRun(config, dir);
    ExpectColdAccounting(warm, cold);
    EXPECT_EQ(warm.storage.detected, 0u);
  }
  fs::remove_all(dir);
}

TEST(StorageLostArtifactTest, ShardIndexComesBackWithColdShardStructure) {
  const std::string dir = ScratchDir("clouddns_storage_lost_shards");
  fs::remove_all(dir);
  auto config = SmallConfig();
  config.client_queries = EffectiveQueryBudget(config.client_queries);
  const std::string stem = dir + "/" + CacheKey(config);
  const std::string shard_path = stem + ".shards";

  // The capture file holds the shards back to back.
  const cloud::ScenarioResult cold = LoadOrRun(config, dir);
  ASSERT_EQ(cold.records.shard_count(), config.shards);
  capture::CaptureBuffer stored;
  ASSERT_TRUE(capture::ReadCaptureFileStatus(stem + ".cdns", stored).ok());
  EXPECT_EQ(stored, cold.records.FlattenCopy());
  ASSERT_TRUE(fs::remove(shard_path));

  const cloud::ScenarioResult rebuilt = LoadOrRun(config, dir);
  EXPECT_EQ(rebuilt.records.shard_count(), config.shards);
  ExpectSameShards(rebuilt.records, cold.records);
  ExpectColdAccounting(rebuilt, cold);
  EXPECT_TRUE(fs::exists(shard_path));

  // A warm hit writes nothing and slices the capture into the cold
  // run's shards.
  const auto written = fs::last_write_time(stem + ".cdns");
  const cloud::ScenarioResult warm = LoadOrRun(config, dir);
  EXPECT_EQ(fs::last_write_time(stem + ".cdns"), written);
  ExpectSameShards(warm.records, cold.records);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Thread invariance: the worker count never shows in the cache artifacts.

/// Pins CLOUDDNS_THREADS for one scope and restores the previous value.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* threads) {
    if (const char* prev = std::getenv("CLOUDDNS_THREADS")) {
      had_prev_ = true;
      prev_ = prev;
    }
    setenv("CLOUDDNS_THREADS", threads, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_prev_) {
      setenv("CLOUDDNS_THREADS", prev_.c_str(), 1);
    } else {
      unsetenv("CLOUDDNS_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(StorageThreadInvarianceTest, ColdArtifactsIdenticalAtOneAndEightThreads) {
  // threads = 0 leaves the worker count to CLOUDDNS_THREADS, which also
  // sizes the zone-signing fan-out.
  auto config = SmallConfig(0);
  config.client_queries = EffectiveQueryBudget(20'000);
  const std::string key = CacheKey(config);
  const char* const suffixes[] = {".cdns", ".ctx", ".shards"};
  const auto dir_for = [](const char* threads) {
    return ScratchDir(
        (std::string("clouddns_storage_threads_") + threads).c_str());
  };
  std::vector<std::uint8_t> reference[3];
  for (const char* threads : {"1", "8"}) {
    SCOPED_TRACE(std::string("threads=") + threads);
    const std::string dir = dir_for(threads);
    fs::remove_all(dir);
    {
      ScopedThreadsEnv env(threads);
      const cloud::ScenarioResult result = LoadOrRun(config, dir);
      ASSERT_FALSE(result.records.empty());
    }
    for (std::size_t i = 0; i < 3; ++i) {
      std::vector<std::uint8_t> bytes;
      ASSERT_TRUE(
          base::io::ReadFileBytes(dir + "/" + key + suffixes[i], bytes).ok())
          << suffixes[i];
      if (reference[i].empty()) {
        reference[i] = std::move(bytes);
      } else {
        EXPECT_EQ(bytes, reference[i]) << suffixes[i] << " bytes diverge";
      }
    }
  }
  for (const char* threads : {"1", "8"}) fs::remove_all(dir_for(threads));
}

// ---------------------------------------------------------------------------
// Seeded fault sweep: all nine kinds, across every persistence path.

TEST(StorageFaultSweepTest, AllNineFaultKindsRecoverByteIdentically) {
  const std::string dir = ScratchDir("clouddns_storage_sweep");
  fs::remove_all(dir);

  auto config = SmallConfig(2);
  config.client_queries = EffectiveQueryBudget(config.client_queries);
  const std::string key = CacheKey(config);
  const std::string capture_path = dir + "/" + key + ".cdns";
  const std::string context_path = dir + "/" + key + ".ctx";
  const std::string shard_path = dir + "/" + key + ".shards";

  // Fault-free baseline, cold then warm.
  const cloud::ScenarioResult baseline_result = LoadOrRun(config, dir);
  const std::string baseline = ReportDigest(baseline_result, 2);
  EXPECT_EQ(ReportDigest(LoadOrRun(config, dir), 2), baseline);
  fs::remove_all(dir);

  base::io::StorageFaultInjector injector(0xC10DD45u);
  ScopedInjector scope(injector);

  // --- Phase 1: write-phase faults on the cold populate. The capture's
  // EINTR is retried to completion; the context and shard writes fail
  // typed, leaving those artifacts absent but the result correct.
  injector.Add({".cdns", base::io::StorageFaultKind::kEintrOnce});
  injector.Add({".ctx", base::io::StorageFaultKind::kEnospc});
  injector.Add({".shards", base::io::StorageFaultKind::kFsyncFail});
  EXPECT_EQ(ReportDigest(LoadOrRun(config, dir), 2), baseline);
  EXPECT_EQ(injector.fired(), 3u);
  EXPECT_TRUE(fs::exists(capture_path));
  EXPECT_FALSE(fs::exists(context_path));
  EXPECT_FALSE(fs::exists(shard_path));
  EXPECT_FALSE(fs::exists(capture_path + ".tmp"));

  // --- Phase 2: a missing artifact means a full rebuild that rewrites
  // all three, so each load retries the context write; fail it three more
  // distinct ways. The shard index lands on the first rebuild, and every
  // result, accounting included, stays correct.
  injector.Add({".ctx", base::io::StorageFaultKind::kRenameFail});
  EXPECT_EQ(ReportDigest(LoadOrRun(config, dir), 2), baseline);
  EXPECT_TRUE(fs::exists(shard_path));
  injector.Add({".ctx", base::io::StorageFaultKind::kOpenFail});
  EXPECT_EQ(ReportDigest(LoadOrRun(config, dir), 2), baseline);
  injector.Add({".ctx", base::io::StorageFaultKind::kShortWrite});
  EXPECT_EQ(ReportDigest(LoadOrRun(config, dir), 2), baseline);
  EXPECT_EQ(injector.fired(), 6u);
  EXPECT_FALSE(fs::exists(context_path));

  // --- Phase 3: post-commit (silent bit-rot) faults, one recovery cycle
  // per artifact. The corrupting run reports success; the NEXT load must
  // detect, quarantine, rebuild, and re-verify.
  struct Cycle {
    const char* path_substring;
    base::io::StorageFaultKind kind;
    const std::string& victim;
    const std::string& force_rewrite_of;  // removed to trigger the write
  };
  const Cycle cycles[] = {
      {".cdns", base::io::StorageFaultKind::kBitFlipAfterCommit, capture_path,
       capture_path},
      {".ctx", base::io::StorageFaultKind::kTruncateAfterCommit, context_path,
       context_path},
      {".shards", base::io::StorageFaultKind::kZeroAfterCommit, shard_path,
       capture_path},
  };
  for (const Cycle& cycle : cycles) {
    SCOPED_TRACE(base::io::ToString(cycle.kind));
    fs::remove(cycle.force_rewrite_of);  // benign miss -> forces the rewrite
    injector.Add({cycle.path_substring, cycle.kind});
    const cloud::ScenarioResult corrupting = LoadOrRun(config, dir);
    EXPECT_EQ(ReportDigest(corrupting, 2), baseline);
    EXPECT_EQ(corrupting.storage.detected, 0u);  // the rot is silent
    ASSERT_TRUE(fs::exists(cycle.victim));

    const cloud::ScenarioResult recovered = LoadOrRun(config, dir);
    EXPECT_EQ(ReportDigest(recovered, 2), baseline);
    EXPECT_EQ(recovered.storage.detected, 1u);
    EXPECT_EQ(recovered.storage.quarantined, 1u);
    EXPECT_GE(recovered.storage.rebuilt, 1u);
    EXPECT_GE(recovered.storage.reverified, 1u);
  }
  EXPECT_EQ(injector.fired(), 9u);  // all nine kinds, each exactly once

  // --- Phase 4: the pcap export path under the same shim. A write-phase
  // fault fails typed and preserves the previous export; silent rot is
  // caught by the framed read.
  const std::string pcap_path = dir + "/" + key + ".pcap";
  const capture::CaptureBuffer flat = baseline_result.records.FlattenCopy();
  ASSERT_TRUE(capture::WritePcapFileStatus(pcap_path, flat).ok());
  injector.Add({".pcap", base::io::StorageFaultKind::kShortWrite});
  EXPECT_EQ(capture::WritePcapFileStatus(pcap_path, flat).code,
            base::io::IoCode::kWriteFailed);
  capture::CaptureBuffer pcap_back;
  EXPECT_TRUE(capture::ReadPcapFileStatus(pcap_path, pcap_back).ok());
  injector.Add({".pcap", base::io::StorageFaultKind::kBitFlipAfterCommit});
  ASSERT_TRUE(capture::WritePcapFileStatus(pcap_path, flat).ok());
  pcap_back.clear();
  EXPECT_FALSE(capture::ReadPcapFileStatus(pcap_path, pcap_back).ok());
  EXPECT_EQ(injector.fired(), 11u);

  // --- Final state: a clean warm load, nothing left to detect.
  const cloud::ScenarioResult healthy = LoadOrRun(config, dir);
  EXPECT_EQ(ReportDigest(healthy, 2), baseline);
  EXPECT_EQ(healthy.storage.detected, 0u);
  EXPECT_TRUE(fs::exists(dir + "/.quarantine"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace clouddns::analysis
