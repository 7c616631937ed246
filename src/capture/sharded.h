// A capture stream that STAYS sharded from simulation through analytics
// (DESIGN.md §13). The scenario engine produces one time-sorted buffer per
// simulation shard; most consumers (the fused AnalysisPlan, the chaos
// day-bucketing) only need per-record access in any deterministic order,
// so they scan the shard buffers in place and never pay the K-way merge or
// the merged-buffer allocation. Consumers that genuinely need the single
// time-ordered stream — pcap/columnar export, rank sketches, per-record
// loops over the whole capture — ask for FlattenCopy() by name. There is
// one merge: MergeOrderShardIds() walks the shard cursors under the (time,
// shard index, within-shard order) contract, and FlattenCopy() gathers the
// records in that order. There is no implicit conversion or vector-style
// accessor: every merge is visible at its call site.
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

  /// Wraps an already-flat (merged or externally loaded) buffer as a
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

  /// The single time-ordered stream as a fresh buffer: records sort by
  /// arrival time, ties resolve to the lower shard index, within-shard
  /// order is kept. The shard buffers are left untouched.
  [[nodiscard]] CaptureBuffer FlattenCopy() const;

  /// Streams compare in flattened order: two captures are equal when they
  /// yield the same time-ordered record sequence, regardless of how the
  /// records are distributed across shards.
  friend bool operator==(const ShardedCapture& a, const ShardedCapture& b) {
    return a.FlattenCopy() == b.FlattenCopy();
  }

  /// The shard index of every record in flattened order: ids[i] names the
  /// shard of FlattenCopy()[i]. This cursor walk is the merge; it is also
  /// the payload of the `.shards` cache sidecar.
  [[nodiscard]] std::vector<std::uint32_t> MergeOrderShardIds() const;

 private:
  std::vector<CaptureBuffer> shards_;
  std::size_t size_ = 0;
};

/// Writes the run-length-encoded shard-id stream of `capture` (in merge
/// order) to `path`, framed/checksummed and atomically renamed into place
/// via base::io (tag kTagShards). The main `.cdns` capture file stays
/// byte-identical; this sidecar is purely additive, letting a later load
/// rebuild the exact shard structure.
[[nodiscard]] base::io::IoStatus WriteShardIndexStatus(
    const std::string& path, const ShardedCapture& capture);

/// Re-partitions a flat, merge-ordered buffer into the shard structure
/// recorded at `path`. Each shard subsequence of the sorted stream is
/// itself sorted, so re-merging reproduces `flat` byte-for-byte. Returns a
/// single-shard view when the sidecar is missing, unframed, malformed, or
/// does not match `flat`. When `status_out` is given it reports WHY a
/// fallback happened — kNotFound (no sidecar) vs a corruption code (the
/// dataset cache quarantines on those). Either way the dataset cache
/// rebuilds the dataset rather than serve the single-shard view.
[[nodiscard]] ShardedCapture ReshardFromIndex(
    const std::string& path, CaptureBuffer flat,
    base::io::IoStatus* status_out = nullptr);

}  // namespace clouddns::capture
