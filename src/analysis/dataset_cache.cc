#include "analysis/dataset_cache.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "analysis/context_cache.h"
#include "base/env.h"
#include "capture/columnar.h"
#include "capture/sharded.h"

namespace clouddns::analysis {
namespace {

std::uint64_t MixField(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  return hash;
}

}  // namespace

std::string DefaultCacheDir() {
  if (const char* dir = std::getenv("CLOUDDNS_CACHE_DIR")) return dir;
  return "clouddns_cache";
}

std::uint64_t EffectiveQueryBudget(std::uint64_t configured) {
  return base::PositiveEnvInteger("CLOUDDNS_QUERIES").value_or(configured);
}

std::string CacheKey(const cloud::ScenarioConfig& config) {
  // Bump when simulator behaviour changes so stale captures are ignored.
  // v10: sharded parallel scenario engine (per-shard workload substreams).
  // v11: storage frame v2 (one payload CRC32C), so v1 frames are not found
  // rather than quarantined as corrupt.
  // v12: the `.ctx` sidecar holds the config and run totals (v4), so v3
  // sidecars are not found rather than quarantined as corrupt.
  // v13: `.cdns` holds the shards back to back and `.shards` one record
  // count per shard (v2), so v1 indexes are not found rather than
  // quarantined as corrupt.
  constexpr std::uint64_t kSimulatorVersion = 13;
  std::uint64_t hash = 0x434c4f5544444e53ull;  // "CLOUDDNS"
  hash = MixField(hash, kSimulatorVersion);
  // The shard count determines the traffic realization; the thread count
  // deliberately does NOT (any `threads` replays the same simulation), so
  // `config.threads` must never reach this key.
  hash = MixField(hash, config.shards);
  hash = MixField(hash, static_cast<std::uint64_t>(config.vantage));
  hash = MixField(hash, static_cast<std::uint64_t>(config.year));
  hash = MixField(hash, config.client_queries);
  hash = MixField(hash, static_cast<std::uint64_t>(config.zone_scale * 1e9));
  hash = MixField(hash, config.seed);
  hash = MixField(hash, static_cast<std::uint64_t>(config.warmup_fraction * 1e9));
  hash = MixField(hash, static_cast<std::uint64_t>(config.diurnal_amplitude * 1e9));
  hash = MixField(hash, static_cast<std::uint64_t>(config.consolidation_factor * 1e9));
  hash = MixField(hash, config.window_start.value_or(0));
  hash = MixField(hash, config.window_end.value_or(0));
  hash = MixField(hash, (config.google_only ? 1u : 0u) |
                            (config.inject_cyclic_event ? 2u : 0u) |
                            (config.qmin_override_off ? 4u : 0u) |
                            (config.rrl_override_off ? 8u : 0u));
  // The fault preset changes the traffic realization, so it is part of
  // the key — but only when set, which keeps every fault-free key (and all
  // previously cached fault-free captures) unchanged.
  if (config.fault_preset != cloud::FaultPreset::kNone) {
    hash = MixField(hash, 0x4641554c54ull);  // "FAULT"
    hash = MixField(hash, static_cast<std::uint64_t>(config.fault_preset));
  }

  std::string vantage = config.vantage == cloud::Vantage::kNl
                            ? "nl"
                            : (config.vantage == cloud::Vantage::kNz ? "nz"
                                                                     : "root");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s_%d_%016llx", vantage.c_str(), config.year,
                static_cast<unsigned long long>(hash));
  return buf;
}

namespace {

/// A corruption code (vs kOk / kNotFound): the artifact exists but failed
/// an integrity check and must be quarantined, never re-read.
bool IsCorruption(const base::io::IoStatus& status) {
  return !status.ok() && status.code != base::io::IoCode::kNotFound;
}

/// One persisted piece of a dataset: the columnar capture, the context
/// sidecar, or the shard-index sidecar.
struct Artifact {
  const char* name;
  std::string path;
  std::uint32_t tag;
  base::io::IoStatus read;     ///< Outcome of the strict warm read.
  base::io::IoStatus written;  ///< Outcome of the rebuild's write.
};

/// Quarantines a corrupt artifact, updates the counters, and logs one
/// structured recovery line. The line is a pure function of the artifact
/// state (no timestamps — the wall-clock determinism contract holds even
/// for diagnostics).
void QuarantineCorrupt(const Artifact& artifact,
                       base::io::StorageCounters& storage) {
  ++storage.detected;
  const std::string moved = base::io::QuarantineFile(
      artifact.path, std::string(artifact.name) + " failed integrity check: " +
                         artifact.read.ToString());
  if (!moved.empty()) ++storage.quarantined;
  std::fprintf(stderr,
               "[storage-recovery] artifact=%s path=%s error=%s "
               "quarantined=%s action=rebuild-from-simulation\n",
               artifact.name, artifact.path.c_str(),
               artifact.read.ToString().c_str(),
               moved.empty() ? "(removed)" : moved.c_str());
}

}  // namespace

cloud::ScenarioResult LoadOrRun(cloud::ScenarioConfig config,
                                const std::string& cache_dir) {
  config.client_queries = EffectiveQueryBudget(config.client_queries);
  if (cache_dir.empty()) return cloud::RunScenario(config);

  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);

  base::io::StorageCounters storage;
  // Sweep temp files stranded by a crashed prior writer; they are never
  // valid artifacts (a completed write renames its temp away).
  storage.tmp_cleaned = static_cast<std::uint64_t>(
      base::io::RemoveStrandedTmpFiles(cache_dir));

  // A dataset is three artifacts: the `.cdns` capture (the shards back to
  // back), the `.ctx` context (the config and the query accounting, from
  // which a load rebuilds the AS database, PTR records and server
  // metadata), and the `.shards` index, one record count per shard, that
  // slices the capture back into the simulation's shards. Only all three together are a warm hit;
  // anything less is rebuilt from simulation as a whole.
  const std::string stem = cache_dir + "/" + CacheKey(config);
  Artifact capture{"capture", stem + ".cdns", base::io::kTagCapture, {}, {}};
  Artifact context{"context", stem + ".ctx", base::io::kTagContext, {}, {}};
  Artifact shards{"shard-index", stem + ".shards", base::io::kTagShards, {},
                  {}};

  // ---- Verify: strict reads of every artifact. ------------------------
  {
    cloud::ScenarioResult warm;
    capture::CaptureBuffer flat;
    capture.read = capture::ReadCaptureFileStatus(capture.path, flat);
    if (capture.read.ok()) {
      warm.records =
          capture::ReshardFromIndex(shards.path, std::move(flat), &shards.read);
    } else {
      // Without the capture the index cannot be matched, only its frame.
      std::vector<std::uint8_t> payload;
      shards.read = base::io::ReadFramedFile(shards.path, shards.tag, payload);
    }
    context.read = LoadScenarioContextStatus(context.path, warm);
    if (capture.read.ok() && shards.read.ok() && context.read.ok()) {
      warm.config = config;
      warm.storage = storage;
      return warm;
    }
  }

  // ---- Rebuild: quarantine what is corrupt, simulate, write all three.
  const Artifact* const artifacts[] = {&capture, &context, &shards};
  for (const Artifact* artifact : artifacts) {
    if (IsCorruption(artifact->read)) QuarantineCorrupt(*artifact, storage);
  }
  cloud::ScenarioResult result = cloud::RunScenario(config);
  // The flat copy is its own statement, so it is freed before the
  // sidecars are written.
  capture.written = capture::WriteCaptureFileStatus(
      capture.path, result.records.FlattenCopy());
  context.written = SaveScenarioContextStatus(context.path, result);
  shards.written = capture::WriteShardIndexStatus(shards.path, result.records);
  for (const Artifact* artifact : artifacts) {
    if (!artifact->written.ok()) {
      // The result is still correct; the next load finds the artifact
      // missing and rebuilds again.
      std::fprintf(stderr,
                   "[storage-recovery] artifact=%s path=%s error=%s "
                   "action=write-failed\n",
                   artifact->name, artifact->path.c_str(),
                   artifact->written.ToString().c_str());
      continue;
    }
    if (!IsCorruption(artifact->read)) continue;
    // Re-read only what replaced a quarantined artifact.
    ++storage.rebuilt;
    std::vector<std::uint8_t> payload;
    if (base::io::ReadFramedFile(artifact->path, artifact->tag, payload)
            .ok()) {
      ++storage.reverified;
    }
  }
  result.storage = storage;
  return result;
}

}  // namespace clouddns::analysis
