// A capture stream that STAYS sharded from simulation through analytics
// (DESIGN.md §13). The scenario engine produces one time-sorted buffer per
// simulation shard; most consumers (the fused AnalysisPlan, the chaos
// day-bucketing) only need per-record access in any deterministic order,
// so they scan the shard buffers in place and never copy. FlattenCopy()
// lays the shards back to back in shard order: the stream a dataset
// stores. Consumers that genuinely need the single time-ordered stream —
// rank sketches, exports a reader expects in time order — ask for
// TimeOrderedCopy() by name, one stable sort of that flat copy. There is
// no implicit conversion or vector-style accessor: every copy is visible
// at its call site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/io.h"
#include "capture/record.h"

namespace clouddns::capture {

/// Sorts one buffer by time, keeping the existing relative order of equal
/// timestamps — the per-shard precondition of ShardedCapture::FromShards.
void SortByTimeStable(CaptureBuffer& buffer);

class ShardedCapture {
 public:
  ShardedCapture() = default;

  /// Wraps an already-flat (time-ordered or externally loaded) buffer as a
  /// single-shard view — a valid degenerate sharding.
  explicit ShardedCapture(CaptureBuffer flat);

  /// Adopts per-shard buffers from the scenario engine. Each buffer must
  /// already be time-sorted (the engine's per-shard harvest contract);
  /// empty shards are kept so shard indices stay meaningful.
  [[nodiscard]] static ShardedCapture FromShards(
      std::vector<CaptureBuffer> shards);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const CaptureBuffer& shard(std::size_t index) const {
    return shards_[index];
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The shards back to back, in shard order, as a fresh buffer. The
  /// shard buffers are left untouched.
  [[nodiscard]] CaptureBuffer FlattenCopy() const;

  /// The single time-ordered stream: FlattenCopy() then SortByTimeStable.
  /// Records sort by arrival time, ties resolve to the lower shard index,
  /// within-shard order is kept.
  [[nodiscard]] CaptureBuffer TimeOrderedCopy() const;

  /// Streams compare in time order: two captures are equal when they
  /// yield the same time-ordered record sequence, regardless of how the
  /// records are distributed across shards.
  friend bool operator==(const ShardedCapture& a, const ShardedCapture& b) {
    return a.TimeOrderedCopy() == b.TimeOrderedCopy();
  }

 private:
  std::vector<CaptureBuffer> shards_;
  std::size_t size_ = 0;
};

/// Writes the record count of every shard of `capture` to `path`,
/// framed/checksummed and atomically renamed into place via base::io (tag
/// kTagShards). With the `.cdns` capture holding FlattenCopy(), these
/// counts are all a later load needs to rebuild the shard structure.
[[nodiscard]] base::io::IoStatus WriteShardIndexStatus(
    const std::string& path, const ShardedCapture& capture);

/// Slices `flat`, the shards back to back, into the shards whose record
/// counts are recorded at `path`. Returns a single-shard view when the
/// index is missing, unframed or malformed, when its counts do not add up
/// to `flat`, or when a slice is not time-sorted. When `status_out` is
/// given it reports WHY a fallback happened — kNotFound (no index) vs a
/// corruption code (the dataset cache quarantines on those). Either way
/// the dataset cache rebuilds the dataset rather than serve the
/// single-shard view.
[[nodiscard]] ShardedCapture ReshardFromIndex(
    const std::string& path, CaptureBuffer flat,
    base::io::IoStatus* status_out = nullptr);

}  // namespace clouddns::capture
