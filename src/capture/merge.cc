#include "capture/merge.h"

// lint:hot-path
// The ladder merge below is the flatten boundary of the sharded pipeline:
// every record an export path touches moves through MergeTwo. Keep it free
// of per-record allocation — runs move wholesale via move iterators.

#include <algorithm>
#include <iterator>
#include <queue>
#include <utility>

#include "base/threads.h"

namespace clouddns::capture {
namespace {

/// Merges two time-sorted buffers, `a` owning the lower shard indices, so
/// ties go to `a` (and within `a`, existing order is kept). Instead of
/// popping one record at a time, each step gallops (binary-searches) to
/// the end of the run the current side may emit — upper_bound on the left
/// so equal timestamps stay left, lower_bound on the right — and moves the
/// whole run at once. Shard streams interleave at burst granularity, so
/// runs are long and the per-record heap bookkeeping of the old merge
/// disappears.
CaptureBuffer MergeTwo(CaptureBuffer&& a, CaptureBuffer&& b) {
  if (a.empty()) return std::move(b);
  if (b.empty()) return std::move(a);
  CaptureBuffer out;
  out.reserve(a.size() + b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (ia->time_us <= ib->time_us) {
      auto run_end = std::upper_bound(
          ia, a.end(), ib->time_us,
          [](sim::TimeUs t, const CaptureRecord& r) { return t < r.time_us; });
      out.insert(out.end(), std::make_move_iterator(ia),
                 std::make_move_iterator(run_end));
      ia = run_end;
    } else {
      auto run_end = std::lower_bound(
          ib, b.end(), ia->time_us,
          [](const CaptureRecord& r, sim::TimeUs t) { return r.time_us < t; });
      out.insert(out.end(), std::make_move_iterator(ib),
                 std::make_move_iterator(run_end));
      ib = run_end;
    }
  }
  out.insert(out.end(), std::make_move_iterator(ia),
             std::make_move_iterator(a.end()));
  out.insert(out.end(), std::make_move_iterator(ib),
             std::make_move_iterator(b.end()));
  CaptureBuffer().swap(a);
  CaptureBuffer().swap(b);
  return out;
}

/// Single-pass K-way cursor merge (the pre-ladder algorithm), shared by
/// MergeShardsHeap and MergeShards' serial branch. No timer — callers time.
CaptureBuffer HeapMergeCore(std::vector<CaptureBuffer>&& shards) {
  // A heap entry is (time, shard); on ties the lower shard index wins,
  // matching the documented determinism contract.
  struct Cursor {
    sim::TimeUs time;
    std::size_t shard;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    return a.time != b.time ? a.time > b.time : a.shard > b.shard;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);

  std::size_t total = 0;
  std::vector<std::size_t> next(shards.size(), 0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    total += shards[s].size();
    if (!shards[s].empty()) heap.push({shards[s][0].time_us, s});
  }

  CaptureBuffer merged;
  merged.reserve(total);
  while (!heap.empty()) {
    auto [time, s] = heap.top();
    heap.pop();
    merged.push_back(std::move(shards[s][next[s]]));
    if (++next[s] < shards[s].size()) {
      heap.push({shards[s][next[s]].time_us, s});
    }
  }
  for (auto& shard : shards) CaptureBuffer().swap(shard);
  return merged;
}

}  // namespace

void AppendBuffer(CaptureBuffer& dst, CaptureBuffer&& src) {
  if (dst.empty()) {
    dst = std::move(src);
    return;
  }
  dst.reserve(dst.size() + src.size());
  std::move(src.begin(), src.end(), std::back_inserter(dst));
  src.clear();
}

void SortByTimeStable(CaptureBuffer& buffer) {
  std::stable_sort(buffer.begin(), buffer.end(),
                   [](const CaptureRecord& a, const CaptureRecord& b) {
                     return a.time_us < b.time_us;
                   });
}

CaptureBuffer MergeShards(std::vector<CaptureBuffer>&& shards) {
  if (shards.empty()) return {};
  if (shards.size() == 1) return std::move(shards.front());
  // Ladder (tournament) merge: each round pairs adjacent buffers and
  // merges the pairs concurrently; an odd trailing buffer carries over
  // unmerged. Pairing adjacents keeps lower shard indices on the left of
  // every two-way merge, so by induction over rounds ties resolve to the
  // lower original shard at every level — exactly the order the
  // per-record heap merge (MergeShardsHeap) produces. A two-shard input
  // is just the final round: one galloping merge, no ladder overhead.
  std::vector<CaptureBuffer> level = std::move(shards);
  const std::size_t workers = std::min(base::EffectiveThreads(0),
                                       base::ThreadPool::Shared().lane_count());
  // The ladder moves every record ceil(lg k) times; the cursor merge moves
  // it once but pays per-record heap bookkeeping. With parallel lanes the
  // ladder's rounds overlap and win; run serially on a >2-way merge, the
  // extra passes are pure cost — take the single-pass merge instead. Both
  // produce the identical (time, shard, within-shard) order.
  if (workers <= 1 && level.size() > 2) return HeapMergeCore(std::move(level));
  while (level.size() > 1) {
    const std::size_t pairs = level.size() / 2;
    std::vector<CaptureBuffer> next(pairs + (level.size() & 1));
    base::ThreadPool::Shared().ParallelFor(
        pairs, workers, [&level, &next](std::size_t p) {
          next[p] =
              MergeTwo(std::move(level[2 * p]), std::move(level[2 * p + 1]));
        });
    if (level.size() & 1) next[pairs] = std::move(level.back());
    level = std::move(next);
  }
  return std::move(level.front());
}

CaptureBuffer MergeShardsCopy(const std::vector<CaptureBuffer>& shards) {
  std::vector<CaptureBuffer> copy = shards;
  return MergeShards(std::move(copy));
}

CaptureBuffer MergeShardsHeap(std::vector<CaptureBuffer>&& shards) {
  return HeapMergeCore(std::move(shards));
}

}  // namespace clouddns::capture
