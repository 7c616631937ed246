// The dataset cache: simulating a capture week takes seconds, and most
// benches share datasets. This module is the one place that knows how a
// dataset lies on disk (DESIGN.md §14). A dataset is three checksummed
// artifacts under one cache key, named by DatasetFiles():
//   - `.cdns`: the columnar capture, the simulation's shards back to back;
//   - `.ctx`: the dataset's config and run totals (analysis/context_cache.h);
//   - `.shards`: one record count per shard.
// WriteDataset() and ReadDataset() are the seam: they run every step that
// stores or loads those files, and can time each step for the benchmark.
// LoadOrRun() serves a dataset warm only when ReadDataset() verifies all
// three artifacts against the requested config; otherwise it quarantines
// the damaged ones and rebuilds the dataset from simulation.
#pragma once

#include <cstdint>
#include <string>

#include "base/io.h"
#include "cloud/scenario.h"

namespace clouddns::analysis {

/// Directory used by default ("./clouddns_cache"); override with the
/// CLOUDDNS_CACHE_DIR environment variable.
[[nodiscard]] std::string DefaultCacheDir();

/// Effective per-dataset client-query budget: the config's value unless
/// the CLOUDDNS_QUERIES environment variable holds a positive integer,
/// which overrides it.
[[nodiscard]] std::uint64_t EffectiveQueryBudget(std::uint64_t configured);

/// Deterministic cache key for a scenario configuration: a hash of every
/// field cloud::ForEachIdentifyingField lists, so never of `threads`.
[[nodiscard]] std::string CacheKey(const cloud::ScenarioConfig& config);

/// The three files of one dataset.
struct DatasetPaths {
  std::string capture;  ///< `.cdns`
  std::string context;  ///< `.ctx`
  std::string shards;   ///< `.shards`
};

/// The files that hold the dataset of `config` in `dir`.
[[nodiscard]] DatasetPaths DatasetFiles(const std::string& dir,
                                        const cloud::ScenarioConfig& config);

/// One status per artifact of a dataset.
struct DatasetStatus {
  base::io::IoStatus capture;
  base::io::IoStatus context;
  base::io::IoStatus shards;

  [[nodiscard]] bool ok() const {
    return capture.ok() && context.ok() && shards.ok();
  }
};

/// Seconds spent in each step of WriteDataset() and ReadDataset(), one
/// field per per-layer metric of the benchmark. A call adds to the fields
/// of the steps it runs, so one struct can sum over many datasets.
struct DatasetTimings {
  // WriteDataset
  double flatten_s = 0;            ///< capture.flatten_s
  double encode_s = 0;             ///< capture.encode_s
  double frame_s = 0;              ///< base.io.frame_s
  double write_s = 0;              ///< base.io.write_s
  double context_save_s = 0;       ///< analysis.context_save_s
  double shard_index_write_s = 0;  ///< capture.shard_index_write_s
  /// Encoded columnar payload bytes, the numerator of
  /// capture.encoded_bytes_per_record.
  std::uint64_t encoded_bytes = 0;
  // ReadDataset
  double read_s = 0;          ///< base.io.read_s
  double unwrap_s = 0;        ///< base.io.unwrap_s
  double decode_s = 0;        ///< capture.decode_s
  double reshard_s = 0;       ///< capture.reshard_s
  double context_load_s = 0;  ///< analysis.context_load_s
};

/// Writes the three artifacts of `result` for `result.config` into `dir`:
/// the capture (flatten, encode, frame, atomic write), then the context,
/// then the shard index. Each buffer of the capture is freed once the next
/// one is built. `timings` may be null, and then no clock is read; the
/// bytes written are the same either way.
[[nodiscard]] DatasetStatus WriteDataset(const std::string& dir,
                                         const cloud::ScenarioResult& result,
                                         DatasetTimings* timings);

struct DatasetRead {
  /// The dataset with `config` as requested (its `threads` included). Its
  /// fields are only meaningful when `status.ok()`.
  cloud::ScenarioResult result;
  DatasetStatus status;
};

/// Reads the dataset of `config` from `dir`: the capture (read, unwrap,
/// decode), the shard index that slices it back into shards, and the
/// context. Each status is kNotFound for a missing file and a corruption
/// code for a damaged one. A capture without a frame is kBadFrame, one
/// the decoder rejects kPayloadCorrupt, and a context that holds another
/// dataset's config kPayloadCorrupt. When the capture cannot be read, only
/// the shard index's frame is checked. `timings` may be null.
[[nodiscard]] DatasetRead ReadDataset(const std::string& dir,
                                      const cloud::ScenarioConfig& config,
                                      DatasetTimings* timings);

/// Runs the scenario, reusing the cached dataset when ReadDataset() reads
/// every artifact back for this exact configuration. Corrupt artifacts are
/// quarantined and every artifact is rewritten from one cold simulation.
/// Pass an empty `cache_dir` to disable caching entirely.
[[nodiscard]] cloud::ScenarioResult LoadOrRun(cloud::ScenarioConfig config,
                                              const std::string& cache_dir =
                                                  DefaultCacheDir());

}  // namespace clouddns::analysis
