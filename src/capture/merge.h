// Deterministic merging of capture streams. The parallel scenario engine
// gives every simulation shard a private CaptureBuffer; this module joins
// them into the single time-ordered stream that export paths consume.
// The merge order is a contract: records sort by arrival time, with ties
// broken by shard index (then by within-shard order), so the merged buffer
// is byte-identical no matter how many threads executed the shards.
//
// MergeShards is a parallel ladder merge: adjacent shard pairs merge by
// galloping over sorted sub-ranges and moving whole runs, level by level,
// with the pairwise merges of one level running concurrently on the shared
// base::ThreadPool. Keeping the lower-indexed buffer on the left of every
// pairwise merge makes the ladder reproduce exactly the order the old
// per-record heap merge produced (retained as MergeShardsHeap for the
// equivalence tests and the bench_micro_merge old-vs-new comparison).
// The strategy adapts to the hardware: the ladder moves every record
// ceil(lg k) times, which only pays off when its rounds overlap on real
// cores, so a >2-way merge with a single execution lane takes the
// single-pass cursor merge instead — same output either way. Merge time is
// booked into base::Phase::kMerge.
#pragma once

#include <vector>

#include "capture/record.h"

namespace clouddns::capture {

/// Appends `src` onto `dst`, destroying `src`. Moves elements (records own
/// heap-allocated names) and reserves up front.
void AppendBuffer(CaptureBuffer& dst, CaptureBuffer&& src);

/// Sorts one buffer by time, keeping the existing relative order of equal
/// timestamps (the within-shard tiebreak of the merge contract).
void SortByTimeStable(CaptureBuffer& buffer);

/// Merges per-shard buffers (each already time-ordered) into one stream.
/// Ties across shards resolve to the lower shard index; the result is
/// independent of thread scheduling. Consumes the inputs.
[[nodiscard]] CaptureBuffer MergeShards(std::vector<CaptureBuffer>&& shards);

/// Non-destructive MergeShards: copies the shard buffers, then merges.
[[nodiscard]] CaptureBuffer MergeShardsCopy(
    const std::vector<CaptureBuffer>& shards);

/// The original per-record priority-queue K-way merge. Identical output to
/// MergeShards by contract; kept as the reference implementation for the
/// equivalence tests and as the "old" side of bench_micro_merge.
[[nodiscard]] CaptureBuffer MergeShardsHeap(
    std::vector<CaptureBuffer>&& shards);

}  // namespace clouddns::capture
