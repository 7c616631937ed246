// ShardedCapture contract tests: the merge order on (time, shard) ties,
// checked against an independent stable-sort oracle on random, all-ties
// and skewed shapes, and the `.shards` sidecar round trip with a typed
// status and clean fallback on every malformed-input shape.
#include "capture/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

namespace clouddns::capture {
namespace {

CaptureRecord At(sim::TimeUs time, std::uint32_t marker) {
  CaptureRecord r;
  r.time_us = time;
  r.src_port = static_cast<std::uint16_t>(marker);
  return r;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// The merge contract written as its own oracle, sharing no code with the
// cursor walk: concatenate the shards in index order, then stable-sort by
// time. Equal times keep concatenation order — lower shard first, then
// within-shard order.
CaptureBuffer ConcatStableSort(const std::vector<CaptureBuffer>& shards) {
  CaptureBuffer all;
  for (const CaptureBuffer& shard : shards) {
    all.insert(all.end(), shard.begin(), shard.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const CaptureRecord& a, const CaptureRecord& b) {
                     return a.time_us < b.time_us;
                   });
  return all;
}

TEST(ShardedCaptureTest, FlattenOrdersByTimeThenShard) {
  std::vector<CaptureBuffer> shards(3);
  shards[0] = {At(10, 0), At(30, 1)};
  shards[1] = {At(10, 10), At(20, 11)};
  shards[2] = {At(10, 20), At(30, 21)};
  auto capture = ShardedCapture::FromShards(std::move(shards));
  ASSERT_EQ(capture.size(), 6u);
  const CaptureBuffer flat = capture.FlattenCopy();
  ASSERT_EQ(flat.size(), 6u);
  // t=10 ties resolve to the lower shard index, in shard order.
  EXPECT_EQ(flat[0].src_port, 0);
  EXPECT_EQ(flat[1].src_port, 10);
  EXPECT_EQ(flat[2].src_port, 20);
  EXPECT_EQ(flat[3].src_port, 11);  // t=20
  EXPECT_EQ(flat[4].src_port, 1);   // t=30 tie: shard 0 before shard 2
  EXPECT_EQ(flat[5].src_port, 21);
}

TEST(ShardedCaptureTest, WithinShardTieOrderSurvivesFlatten) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(5, 0), At(5, 1), At(5, 2)};
  shards[1] = {At(5, 10)};
  auto capture = ShardedCapture::FromShards(std::move(shards));
  const CaptureBuffer flat = capture.FlattenCopy();
  EXPECT_EQ(flat[0].src_port, 0);
  EXPECT_EQ(flat[1].src_port, 1);
  EXPECT_EQ(flat[2].src_port, 2);
  EXPECT_EQ(flat[3].src_port, 10);
}

TEST(ShardedCaptureTest, HandlesEmptyShards) {
  const ShardedCapture none;  // zero shards
  EXPECT_EQ(none.shard_count(), 0u);
  EXPECT_TRUE(none.FlattenCopy().empty());
  EXPECT_TRUE(none.MergeOrderShardIds().empty());

  std::vector<CaptureBuffer> shards(4);
  shards[2] = {At(7, 9)};
  shards[3] = {At(3, 4), At(7, 5)};
  const auto sparse = ShardedCapture::FromShards(std::move(shards));
  EXPECT_EQ(sparse.shard_count(), 4u);
  const CaptureBuffer flat = sparse.FlattenCopy();
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].src_port, 4);
  EXPECT_EQ(flat[1].src_port, 9);  // t=7 tie: shard 2 before shard 3
  EXPECT_EQ(flat[2].src_port, 5);
  EXPECT_EQ(sparse.MergeOrderShardIds(),
            (std::vector<std::uint32_t>{3, 2, 3}));
}

TEST(ShardedCaptureTest, SortByTimeStableKeepsEqualOrder) {
  CaptureBuffer buffer = {At(5, 0), At(1, 1), At(5, 2), At(1, 3)};
  SortByTimeStable(buffer);
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer[0].src_port, 1);
  EXPECT_EQ(buffer[1].src_port, 3);
  EXPECT_EQ(buffer[2].src_port, 0);
  EXPECT_EQ(buffer[3].src_port, 2);
}

// Every record carries marker shard * 1000 + position, so the source shard
// of each flattened record can be read back from its marker.
TEST(ShardedCaptureTest, FlattenMatchesStableSortOnRandomShards) {
  std::vector<std::vector<CaptureBuffer>> shapes;
  // Deterministic pseudo-random shard shapes (xorshift, fixed seed):
  // bursty arrivals with frequent exact ties across shards.
  std::uint64_t state = 0x243f6a8885a308d3ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (std::size_t shard_count : {1u, 2u, 3u, 5u, 16u}) {
    std::vector<CaptureBuffer>& shards = shapes.emplace_back(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t n = next() % 200;
      sim::TimeUs t = next() % 50;
      for (std::size_t i = 0; i < n; ++i) {
        t += next() % 3;
        shards[s].push_back(At(t, static_cast<std::uint32_t>(s * 1000 + i)));
      }
    }
  }
  // All ties: every record of every shard at one instant.
  std::vector<CaptureBuffer>& ties = shapes.emplace_back(4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      ties[s].push_back(At(7, s * 1000 + i));
    }
  }
  // Skewed runs: shard 1 lies entirely before shard 0, shard 2 is empty.
  std::vector<CaptureBuffer>& skewed = shapes.emplace_back(3);
  for (std::uint32_t i = 0; i < 500; ++i) {
    skewed[0].push_back(At(5000 + i, i));
    skewed[1].push_back(At(i, 1000 + i));
  }

  for (const std::vector<CaptureBuffer>& shards : shapes) {
    const CaptureBuffer want = ConcatStableSort(shards);
    const auto capture = ShardedCapture::FromShards(shards);
    const CaptureBuffer flat = capture.FlattenCopy();
    const std::vector<std::uint32_t> ids = capture.MergeOrderShardIds();
    ASSERT_EQ(flat.size(), want.size()) << shards.size() << " shards";
    ASSERT_EQ(ids.size(), want.size()) << shards.size() << " shards";
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(flat[i], want[i])
          << "diverges at record " << i << " with " << shards.size()
          << " shards";
      ASSERT_EQ(ids[i], want[i].src_port / 1000u)
          << "wrong source shard at record " << i << " with "
          << shards.size() << " shards";
    }
    // Flattening copies: the shard buffers are left as they were.
    for (std::size_t s = 0; s < shards.size(); ++s) {
      EXPECT_EQ(capture.shard(s), shards[s]) << "shard " << s;
    }
  }
}

TEST(ShardedCaptureTest, EqualityComparesFlattenedStreams) {
  std::vector<CaptureBuffer> two(2);
  two[0] = {At(1, 0)};
  two[1] = {At(2, 1)};
  auto sharded = ShardedCapture::FromShards(std::move(two));
  ShardedCapture flat(CaptureBuffer{At(1, 0), At(2, 1)});
  EXPECT_TRUE(sharded == flat);  // distribution differs, stream identical
  ShardedCapture other(CaptureBuffer{At(1, 0), At(3, 1)});
  EXPECT_FALSE(sharded == other);
}

TEST(ShardedCaptureTest, SidecarRoundTripRestoresShardStructure) {
  std::vector<CaptureBuffer> shards(4);
  shards[0] = {At(10, 0), At(40, 1)};
  shards[2] = {At(10, 20), At(20, 21), At(50, 22)};
  shards[3] = {At(30, 30)};
  auto original = ShardedCapture::FromShards(std::move(shards));
  const std::string path = TempPath("roundtrip.shards");
  ASSERT_TRUE(WriteShardIndexStatus(path, original).ok());

  auto restored = ReshardFromIndex(path, original.FlattenCopy());
  ASSERT_EQ(restored.shard_count(), original.shard_count());
  for (std::size_t s = 0; s < original.shard_count(); ++s) {
    EXPECT_EQ(restored.shard(s), original.shard(s)) << "shard " << s;
  }
  EXPECT_TRUE(restored == original);
  std::remove(path.c_str());
}

TEST(ShardedCaptureTest, MissingSidecarFallsBackToSingleShard) {
  CaptureBuffer flat = {At(1, 0), At(2, 1)};
  auto restored =
      ReshardFromIndex(TempPath("does_not_exist.shards"), std::move(flat));
  EXPECT_EQ(restored.shard_count(), 1u);
  EXPECT_EQ(restored.size(), 2u);
}

TEST(ShardedCaptureTest, MismatchedSidecarFallsBackToSingleShard) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(1, 0)};
  shards[1] = {At(2, 1)};
  auto original = ShardedCapture::FromShards(std::move(shards));
  const std::string path = TempPath("mismatch.shards");
  ASSERT_TRUE(WriteShardIndexStatus(path, original).ok());

  // A flat buffer with a different record count must be rejected.
  CaptureBuffer wrong = {At(1, 0)};
  auto restored = ReshardFromIndex(path, std::move(wrong));
  EXPECT_EQ(restored.shard_count(), 1u);
  EXPECT_EQ(restored.size(), 1u);
  std::remove(path.c_str());
}

TEST(ShardedCaptureTest, TruncatedSidecarFallsBackToSingleShard) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(1, 0), At(3, 2)};
  shards[1] = {At(2, 1)};
  auto original = ShardedCapture::FromShards(std::move(shards));
  const std::string path = TempPath("truncated.shards");
  ASSERT_TRUE(WriteShardIndexStatus(path, original).ok());
  // Truncate the file mid-payload.
  if (std::FILE* f = std::fopen(path.c_str(), "rb+")) {
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), 12), 0);
  }
  auto restored = ReshardFromIndex(path, original.FlattenCopy());
  EXPECT_EQ(restored.shard_count(), 1u);
  EXPECT_EQ(restored.size(), 3u);
  std::remove(path.c_str());
}

TEST(ShardedCaptureTest, GarbageSidecarFallsBackToSingleShard) {
  const std::string path = TempPath("garbage.shards");
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fputs("not a shard index at all", f);
    std::fclose(f);
  }
  CaptureBuffer flat = {At(1, 0)};
  base::io::IoStatus status;
  auto restored = ReshardFromIndex(path, std::move(flat), &status);
  EXPECT_EQ(status.code, base::io::IoCode::kBadFrame);
  EXPECT_EQ(restored.shard_count(), 1u);
  EXPECT_EQ(restored.size(), 1u);
  std::remove(path.c_str());
}

TEST(ShardedCaptureTest, ReshardedShardsRemergeByteIdentically) {
  // The property dataset_cache relies on: reshard(flatten(x)) flattens
  // back to exactly flatten(x).
  std::vector<CaptureBuffer> shards(3);
  std::uint32_t marker = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    sim::TimeUs t = s;  // deliberate cross-shard ties
    for (int i = 0; i < 50; ++i) {
      t += (i % 7 == 0) ? 0 : 2;
      shards[s].push_back(At(t, marker++));
    }
  }
  auto original = ShardedCapture::FromShards(std::move(shards));
  const std::string path = TempPath("remerge.shards");
  ASSERT_TRUE(WriteShardIndexStatus(path, original).ok());
  auto restored = ReshardFromIndex(path, original.FlattenCopy());
  EXPECT_EQ(restored.FlattenCopy(), original.FlattenCopy());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace clouddns::capture
