#include "analysis/dataset_cache.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <type_traits>
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

/// A config field as one word of the cache key: a double in billionths,
/// an unset window bound as 0, anything else as its integer value.
template <typename T>
std::uint64_t KeyWord(const T& value) {
  if constexpr (std::is_same_v<T, double>) {
    return static_cast<std::uint64_t>(value * 1e9);
  } else if constexpr (std::is_same_v<T, std::optional<sim::TimeUs>>) {
    return static_cast<std::uint64_t>(value.value_or(0));
  } else {
    return static_cast<std::uint64_t>(value);
  }
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
  // v14: every identifying field is mixed on its own, the fault preset
  // too when it is kNone; the files' contents are unchanged.
  constexpr std::uint64_t kSimulatorVersion = 14;
  std::uint64_t hash = 0x434c4f5544444e53ull;  // "CLOUDDNS"
  hash = MixField(hash, kSimulatorVersion);
  cloud::ForEachIdentifyingField([&](std::string_view, auto field) {
    hash = MixField(hash, KeyWord(config.*field));
  });

  std::string vantage = config.vantage == cloud::Vantage::kNl
                            ? "nl"
                            : (config.vantage == cloud::Vantage::kNz ? "nz"
                                                                     : "root");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s_%d_%016llx", vantage.c_str(), config.year,
                static_cast<unsigned long long>(hash));
  return buf;
}

DatasetPaths DatasetFiles(const std::string& dir,
                          const cloud::ScenarioConfig& config) {
  const std::string stem = dir + "/" + CacheKey(config);
  return {stem + ".cdns", stem + ".ctx", stem + ".shards"};
}

namespace {

/// Runs the steps of WriteDataset and ReadDataset, adding each one's
/// duration to its DatasetTimings field; with no timings it only runs them.
class StepClock {
 public:
  explicit StepClock(DatasetTimings* timings) : timings_(timings) {}

  template <typename Step>
  auto operator()(double DatasetTimings::*field, Step&& step) {
    if (timings_ == nullptr) return step();
    // lint:allow(wall-clock): storage-step telemetry only, as in base/phase.h; the reading never reaches simulation state or rendered output
    const auto start = std::chrono::steady_clock::now();
    auto out = step();
    // lint:allow(wall-clock): storage-step telemetry only; see above
    const auto elapsed = std::chrono::steady_clock::now() - start;
    timings_->*field += std::chrono::duration<double>(elapsed).count();
    return out;
  }

  void AddEncodedBytes(std::size_t bytes) {
    if (timings_ != nullptr) timings_->encoded_bytes += bytes;
  }

 private:
  DatasetTimings* timings_;
};

/// The capture file's bytes: the shards back to back, encoded and framed.
/// The flat copy is freed once it is encoded, the payload on return.
std::vector<std::uint8_t> FramedCapture(const capture::ShardedCapture& records,
                                        StepClock& clock) {
  std::vector<std::uint8_t> payload;
  {
    const capture::CaptureBuffer flat = clock(
        &DatasetTimings::flatten_s, [&] { return records.FlattenCopy(); });
    payload = clock(&DatasetTimings::encode_s,
                    [&] { return capture::EncodeColumnar(flat); });
  }
  clock.AddEncodedBytes(payload.size());
  return clock(&DatasetTimings::frame_s, [&] {
    return base::io::WrapFrame(base::io::kTagCapture, payload);
  });
}

/// Reads the capture file at `path`. The raw bytes are freed before the
/// payload is decoded. nullopt, with `status` saying why, when the file is
/// missing, unframed or damaged, or the decoder rejects the payload.
std::optional<capture::CaptureBuffer> ReadCapture(const std::string& path,
                                                  StepClock& clock,
                                                  base::io::IoStatus& status) {
  std::vector<std::uint8_t> payload;
  {
    std::vector<std::uint8_t> bytes;
    status = clock(&DatasetTimings::read_s,
                   [&] { return base::io::ReadFileBytes(path, bytes); });
    if (!status.ok()) return std::nullopt;
    bool framed = false;
    status = clock(&DatasetTimings::unwrap_s, [&] {
      return base::io::UnwrapFrame(bytes, base::io::kTagCapture, payload,
                                   framed);
    });
    if (status.ok() && !framed) {
      status = base::io::IoStatus::Error(base::io::IoCode::kBadFrame,
                                         "unframed file " + path);
    }
    if (!status.ok()) return std::nullopt;
  }
  std::optional<capture::CaptureBuffer> flat =
      clock(&DatasetTimings::decode_s,
            [&] { return capture::DecodeColumnar(payload); });
  if (!flat) {
    status = base::io::IoStatus::Error(
        base::io::IoCode::kPayloadCorrupt,
        "columnar payload rejected inside an intact frame");
  }
  return flat;
}

}  // namespace

DatasetStatus WriteDataset(const std::string& dir,
                           const cloud::ScenarioResult& result,
                           DatasetTimings* timings) {
  const DatasetPaths files = DatasetFiles(dir, result.config);
  StepClock clock(timings);
  DatasetStatus status;
  {
    const std::vector<std::uint8_t> framed =
        FramedCapture(result.records, clock);
    status.capture = clock(&DatasetTimings::write_s, [&] {
      return base::io::WriteFileAtomic(files.capture, framed);
    });
  }
  status.context = clock(&DatasetTimings::context_save_s, [&] {
    return SaveScenarioContextStatus(files.context, result);
  });
  status.shards = clock(&DatasetTimings::shard_index_write_s, [&] {
    return capture::WriteShardIndexStatus(files.shards, result.records);
  });
  return status;
}

DatasetRead ReadDataset(const std::string& dir,
                        const cloud::ScenarioConfig& config,
                        DatasetTimings* timings) {
  const DatasetPaths files = DatasetFiles(dir, config);
  StepClock clock(timings);
  DatasetRead read;
  std::optional<capture::CaptureBuffer> flat =
      ReadCapture(files.capture, clock, read.status.capture);
  if (flat) {
    read.result.records = clock(&DatasetTimings::reshard_s, [&] {
      return capture::ReshardFromIndex(files.shards, std::move(*flat),
                                       &read.status.shards);
    });
  } else {
    // Without the capture the index cannot be matched, only its frame.
    std::vector<std::uint8_t> payload;
    read.status.shards =
        base::io::ReadFramedFile(files.shards, base::io::kTagShards, payload);
  }
  read.status.context = clock(&DatasetTimings::context_load_s, [&] {
    return LoadScenarioContextStatus(files.context, read.result);
  });
  if (read.status.context.ok() &&
      !cloud::SameDataset(read.result.config, config)) {
    read.status.context = base::io::IoStatus::Error(
        base::io::IoCode::kPayloadCorrupt,
        "context sidecar holds the config of another dataset");
  }
  read.result.config = config;
  return read;
}

namespace {

/// A corruption code (vs kOk / kNotFound): the artifact exists but failed
/// an integrity check and must be quarantined, never re-read.
bool IsCorruption(const base::io::IoStatus& status) {
  return !status.ok() && status.code != base::io::IoCode::kNotFound;
}

/// Calls fn(name, path, tag, &DatasetStatus::artifact) for each artifact of
/// the dataset at `files`, in the order WriteDataset writes them. `name` is
/// what the recovery lines print.
template <typename Fn>
void ForEachArtifact(const DatasetPaths& files, Fn fn) {
  fn("capture", files.capture, base::io::kTagCapture, &DatasetStatus::capture);
  fn("context", files.context, base::io::kTagContext, &DatasetStatus::context);
  fn("shard-index", files.shards, base::io::kTagShards,
     &DatasetStatus::shards);
}

/// Quarantines a corrupt artifact, updates the counters, and logs one
/// structured recovery line. The line is a pure function of the artifact
/// state (no timestamps — the wall-clock determinism contract holds even
/// for diagnostics).
void QuarantineCorrupt(const char* name, const std::string& path,
                       const base::io::IoStatus& read,
                       base::io::StorageCounters& storage) {
  ++storage.detected;
  const std::string moved = base::io::QuarantineFile(
      path, std::string(name) + " failed integrity check: " + read.ToString());
  if (!moved.empty()) ++storage.quarantined;
  std::fprintf(stderr,
               "[storage-recovery] artifact=%s path=%s error=%s "
               "quarantined=%s action=rebuild-from-simulation\n",
               name, path.c_str(), read.ToString().c_str(),
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

  // Only every artifact together is a warm hit; anything less is rebuilt
  // from simulation as a whole. The partial read is freed first.
  DatasetStatus read;
  {
    DatasetRead warm = ReadDataset(cache_dir, config, nullptr);
    if (warm.status.ok()) {
      warm.result.storage = storage;
      return std::move(warm.result);
    }
    read = std::move(warm.status);
  }

  const DatasetPaths files = DatasetFiles(cache_dir, config);
  ForEachArtifact(files, [&](const char* name, const std::string& path,
                             std::uint32_t, auto artifact) {
    if (IsCorruption(read.*artifact)) {
      QuarantineCorrupt(name, path, read.*artifact, storage);
    }
  });
  cloud::ScenarioResult result = cloud::RunScenario(config);
  const DatasetStatus written = WriteDataset(cache_dir, result, nullptr);
  ForEachArtifact(files, [&](const char* name, const std::string& path,
                             std::uint32_t tag, auto artifact) {
    if (!(written.*artifact).ok()) {
      // The result is still correct; the next load finds the artifact
      // missing and rebuilds again.
      std::fprintf(stderr,
                   "[storage-recovery] artifact=%s path=%s error=%s "
                   "action=write-failed\n",
                   name, path.c_str(), (written.*artifact).ToString().c_str());
      return;
    }
    if (!IsCorruption(read.*artifact)) return;
    // Re-read only what replaced a quarantined artifact.
    ++storage.rebuilt;
    std::vector<std::uint8_t> payload;
    if (base::io::ReadFramedFile(path, tag, payload).ok()) {
      ++storage.reverified;
    }
  });
  result.storage = storage;
  return result;
}

}  // namespace clouddns::analysis
