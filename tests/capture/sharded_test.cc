// ShardedCapture contract tests: flatten ordering on (time, shard) ties,
// single-shard identity, and the `.shards` sidecar round trip with a
// typed status and clean fallback on every malformed-input shape.
#include "capture/sharded.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "capture/merge.h"

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

TEST(ShardedCaptureTest, FlattenOrdersByTimeThenShard) {
  std::vector<CaptureBuffer> shards(3);
  shards[0] = {At(10, 0), At(30, 1)};
  shards[1] = {At(10, 10), At(20, 11)};
  shards[2] = {At(10, 20), At(30, 21)};
  auto capture = ShardedCapture::FromShards(std::move(shards));
  ASSERT_EQ(capture.size(), 6u);
  const CaptureBuffer& flat = capture.Flatten();
  ASSERT_EQ(flat.size(), 6u);
  // t=10 ties resolve to the lower shard index, in shard order.
  EXPECT_EQ(flat[0].src_port, 0);
  EXPECT_EQ(flat[1].src_port, 10);
  EXPECT_EQ(flat[2].src_port, 20);
  EXPECT_EQ(flat[3].src_port, 11);  // t=20
  EXPECT_EQ(flat[4].src_port, 1);   // t=30 tie: shard 0 before shard 2
  EXPECT_EQ(flat[5].src_port, 21);
  // Memoized: same object on repeat calls.
  EXPECT_EQ(&capture.Flatten(), &flat);
}

TEST(ShardedCaptureTest, WithinShardTieOrderSurvivesFlatten) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(5, 0), At(5, 1), At(5, 2)};
  shards[1] = {At(5, 10)};
  auto capture = ShardedCapture::FromShards(std::move(shards));
  const CaptureBuffer& flat = capture.Flatten();
  EXPECT_EQ(flat[0].src_port, 0);
  EXPECT_EQ(flat[1].src_port, 1);
  EXPECT_EQ(flat[2].src_port, 2);
  EXPECT_EQ(flat[3].src_port, 10);
}

TEST(ShardedCaptureTest, SingleShardViewIsZeroCost) {
  CaptureBuffer flat = {At(1, 0), At(2, 1)};
  const CaptureRecord* data = flat.data();
  ShardedCapture capture(std::move(flat));
  EXPECT_EQ(capture.shard_count(), 1u);
  EXPECT_EQ(capture.size(), 2u);
  // Flatten on a single-shard view returns the shard itself — no copy.
  EXPECT_EQ(capture.Flatten().data(), data);
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

TEST(ShardedCaptureTest, TakeFlatMatchesFlattenAndEmptiesView) {
  std::vector<CaptureBuffer> shards(2);
  shards[0] = {At(2, 1)};
  shards[1] = {At(1, 0), At(3, 2)};
  auto capture = ShardedCapture::FromShards(std::move(shards));
  CaptureBuffer expected = capture.FlattenCopy();
  CaptureBuffer taken = std::move(capture).TakeFlat();
  EXPECT_EQ(taken, expected);
  EXPECT_TRUE(capture.empty());  // NOLINT(bugprone-use-after-move)
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
  EXPECT_EQ(restored.Flatten(), original.Flatten());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace clouddns::capture
