// The shard-merge contract: per-shard streams join into one time-ordered
// buffer with ties resolved to the lower shard index, independent of how
// many buffers there are or how records are distributed among them.
#include "capture/merge.h"

#include <gtest/gtest.h>

#include "base/phase.h"

namespace clouddns::capture {
namespace {

CaptureRecord At(sim::TimeUs time, std::uint32_t marker) {
  CaptureRecord r;
  r.time_us = time;
  r.src_port = static_cast<std::uint16_t>(marker);
  return r;
}

TEST(MergeTest, MergesByTime) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(10, 0), At(30, 1), At(50, 2)};
  shards[1] = {At(20, 3), At(40, 4)};
  auto merged = MergeShards(std::move(shards));
  ASSERT_EQ(merged.size(), 5u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].time_us, merged[i].time_us);
  }
  EXPECT_EQ(merged[0].src_port, 0);
  EXPECT_EQ(merged[1].src_port, 3);
  EXPECT_EQ(merged[4].src_port, 2);
}

TEST(MergeTest, TiesResolveToLowerShard) {
  std::vector<CaptureBuffer> shards(3);
  shards[0] = {At(100, 0)};
  shards[1] = {At(100, 1), At(100, 2)};
  shards[2] = {At(100, 3)};
  auto merged = MergeShards(std::move(shards));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].src_port, 0);  // shard 0 first
  EXPECT_EQ(merged[1].src_port, 1);  // then shard 1, in-shard order kept
  EXPECT_EQ(merged[2].src_port, 2);
  EXPECT_EQ(merged[3].src_port, 3);
}

TEST(MergeTest, HandlesEmptyShards) {
  EXPECT_TRUE(MergeShards({}).empty());
  std::vector<CaptureBuffer> shards(4);
  shards[2] = {At(7, 9)};
  auto merged = MergeShards(std::move(shards));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].src_port, 9);
}

TEST(MergeTest, SortByTimeStableKeepsEqualOrder) {
  CaptureBuffer buffer = {At(5, 0), At(1, 1), At(5, 2), At(1, 3)};
  SortByTimeStable(buffer);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0].src_port, 1);
  EXPECT_EQ(buffer[1].src_port, 3);
  EXPECT_EQ(buffer[2].src_port, 0);
  EXPECT_EQ(buffer[3].src_port, 2);
}

// The ladder/galloping rewrite must be indistinguishable from the original
// per-record heap merge on every shape: the heap version is the executable
// specification of the (time, shard, within-shard) order.
TEST(MergeTest, GallopingMatchesHeapOnRandomShards) {
  // Deterministic pseudo-random shard shapes (xorshift, fixed seed).
  std::uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (std::size_t shard_count : {1u, 2u, 3u, 5u, 16u}) {
    std::vector<CaptureBuffer> a(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t n = next() % 200;
      sim::TimeUs t = next() % 50;
      for (std::size_t i = 0; i < n; ++i) {
        // Bursty arrivals with frequent exact ties across shards.
        t += next() % 3;
        a[s].push_back(At(t, static_cast<std::uint32_t>(s * 1000 + i)));
      }
    }
    std::vector<CaptureBuffer> b = a;
    auto galloping = MergeShards(std::move(a));
    auto heap = MergeShardsHeap(std::move(b));
    ASSERT_EQ(galloping.size(), heap.size()) << shard_count << " shards";
    for (std::size_t i = 0; i < galloping.size(); ++i) {
      ASSERT_EQ(galloping[i].src_port, heap[i].src_port)
          << "diverges at record " << i << " with " << shard_count
          << " shards";
    }
  }
}

TEST(MergeTest, TwoShardFastPathKeepsTieOrder) {
  // All-ties two-shard merge: left (lower shard) must win every tie and
  // keep within-shard order — the exact contract Flatten() relies on.
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(5, 0), At(5, 1), At(9, 2)};
  shards[1] = {At(5, 10), At(9, 11), At(9, 12)};
  auto merged = MergeShards(std::move(shards));
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_EQ(merged[0].src_port, 0);
  EXPECT_EQ(merged[1].src_port, 1);
  EXPECT_EQ(merged[2].src_port, 10);
  EXPECT_EQ(merged[3].src_port, 2);
  EXPECT_EQ(merged[4].src_port, 11);
  EXPECT_EQ(merged[5].src_port, 12);
}

TEST(MergeTest, SkewedRunsMergeWholesale) {
  // One shard entirely before the other: the galloping merge must copy
  // each side as a single run and still match the contract.
  std::vector<CaptureBuffer> shards(2);
  for (std::uint32_t i = 0; i < 1000; ++i) shards[1].push_back(At(i, i));
  for (std::uint32_t i = 0; i < 1000; ++i) {
    shards[0].push_back(At(5000 + i, 100000 + i));
  }
  auto merged = MergeShards(std::move(shards));
  ASSERT_EQ(merged.size(), 2000u);
  EXPECT_EQ(merged.front().src_port, 0);
  EXPECT_EQ(merged[999].time_us, 999u);
  EXPECT_EQ(merged[1000].time_us, 5000u);
}

TEST(MergeTest, MergeShardsCopyLeavesInputsIntact) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(10, 0)};
  shards[1] = {At(5, 1)};
  auto merged = MergeShardsCopy(shards);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].src_port, 1);
  ASSERT_EQ(shards[0].size(), 1u);  // untouched
  ASSERT_EQ(shards[1].size(), 1u);
}

TEST(MergeTest, MergeNanosAccumulates) {
  // Merges book into the kMerge phase counter (run outside any other
  // phase timer, so the nesting guard does not swallow them).
  const std::uint64_t before = base::PhaseNanos(base::Phase::kMerge);
  std::vector<CaptureBuffer> shards(2);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    shards[i % 2].push_back(At(i, i));
  }
  auto merged = MergeShards(std::move(shards));
  ASSERT_EQ(merged.size(), 5000u);
  EXPECT_GT(base::PhaseNanos(base::Phase::kMerge), before);
}

TEST(MergeTest, AppendBufferMovesAll) {
  CaptureBuffer dst = {At(1, 0)};
  CaptureBuffer src = {At(2, 1), At(3, 2)};
  AppendBuffer(dst, std::move(src));
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst[2].src_port, 2);
  CaptureBuffer empty_dst;
  CaptureBuffer src2 = {At(4, 5)};
  AppendBuffer(empty_dst, std::move(src2));
  ASSERT_EQ(empty_dst.size(), 1u);
}

}  // namespace
}  // namespace clouddns::capture
