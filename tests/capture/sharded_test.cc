// ShardedCapture contract tests: FlattenCopy() lays the shards back to
// back; TimeOrderedCopy() orders by (time, shard, within-shard), checked
// as properties on random, all-ties and skewed shapes; and the `.shards`
// v2 index (one record count per shard) round trips, with a typed status
// and a clean single-shard fallback on every malformed shape, including a
// seeded mutation loop over its payload.
#include "capture/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "capture/varint.h"

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

/// Each shard buffer equal, in order.
void ExpectSameShards(const ShardedCapture& got, const ShardedCapture& want) {
  ASSERT_EQ(got.shard_count(), want.shard_count());
  for (std::size_t s = 0; s < want.shard_count(); ++s) {
    EXPECT_EQ(got.shard(s), want.shard(s)) << "shard " << s;
  }
}

/// Four time-sorted shards of 2, 130, 3 and 0 records: one count takes
/// two varint bytes, one shard is empty.
ShardedCapture SampleShards() {
  std::vector<CaptureBuffer> shards(4);
  shards[0] = {At(10, 0), At(40, 1)};
  for (std::uint32_t i = 0; i < 130; ++i) shards[1].push_back(At(i, 100 + i));
  shards[2] = {At(10, 20), At(20, 21), At(50, 22)};
  return ShardedCapture::FromShards(std::move(shards));
}

/// A `.shards` v2 payload written out byte by byte, as an oracle
/// independent of WriteShardIndexStatus.
std::vector<std::uint8_t> IndexPayload(std::uint64_t version,
                                       std::uint64_t shard_count,
                                       std::uint64_t record_count,
                                       const std::vector<std::uint64_t>& counts) {
  std::vector<std::uint8_t> bytes = {'C', 'D', 'N', 'S', 'S', 'H', 'R', 'D'};
  PutVarint(bytes, version);
  PutVarint(bytes, shard_count);
  PutVarint(bytes, record_count);
  for (const std::uint64_t count : counts) PutVarint(bytes, count);
  return bytes;
}

/// Frames `payload` as a shard index and reslices `flat` by it.
ShardedCapture ReshardPayload(const std::vector<std::uint8_t>& payload,
                              CaptureBuffer flat, base::io::IoStatus& status) {
  const std::string path = TempPath("crafted.shards");
  EXPECT_TRUE(
      base::io::WriteFramedFile(path, base::io::kTagShards, payload).ok());
  ShardedCapture restored = ReshardFromIndex(path, std::move(flat), &status);
  std::remove(path.c_str());
  return restored;
}

TEST(ShardedCaptureTest, TimeOrderedCopyOrdersByTimeThenShard) {
  std::vector<CaptureBuffer> shards(3);
  shards[0] = {At(10, 0), At(30, 1)};
  shards[1] = {At(10, 10), At(20, 11)};
  shards[2] = {At(10, 20), At(30, 21)};
  auto capture = ShardedCapture::FromShards(std::move(shards));
  ASSERT_EQ(capture.size(), 6u);
  const CaptureBuffer flat = capture.TimeOrderedCopy();
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
  for (const CaptureBuffer& flat :
       {capture.FlattenCopy(), capture.TimeOrderedCopy()}) {
    EXPECT_EQ(flat[0].src_port, 0);
    EXPECT_EQ(flat[1].src_port, 1);
    EXPECT_EQ(flat[2].src_port, 2);
    EXPECT_EQ(flat[3].src_port, 10);
  }
}

TEST(ShardedCaptureTest, HandlesEmptyShards) {
  const ShardedCapture none;  // zero shards
  EXPECT_EQ(none.shard_count(), 0u);
  EXPECT_TRUE(none.FlattenCopy().empty());
  EXPECT_TRUE(none.TimeOrderedCopy().empty());

  std::vector<CaptureBuffer> shards(4);
  shards[2] = {At(7, 9)};
  shards[3] = {At(3, 4), At(7, 5)};
  const auto sparse = ShardedCapture::FromShards(std::move(shards));
  EXPECT_EQ(sparse.shard_count(), 4u);
  // Shard-major: shard 2, then shard 3.
  EXPECT_EQ(sparse.FlattenCopy(),
            (CaptureBuffer{At(7, 9), At(3, 4), At(7, 5)}));
  const CaptureBuffer flat = sparse.TimeOrderedCopy();
  ASSERT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].src_port, 4);
  EXPECT_EQ(flat[1].src_port, 9);  // t=7 tie: shard 2 before shard 3
  EXPECT_EQ(flat[2].src_port, 5);
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

// Every record carries marker shard * 1000 + position, so the (shard,
// within-shard) position of each record can be read back from its marker
// and compares as the marker does.
TEST(ShardedCaptureTest, TimeOrderedCopyHoldsOnRandomShards) {
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

  const auto by_marker = [](const CaptureRecord& a, const CaptureRecord& b) {
    return a.src_port < b.src_port;
  };
  for (const std::vector<CaptureBuffer>& shards : shapes) {
    SCOPED_TRACE(std::to_string(shards.size()) + " shards");
    const auto capture = ShardedCapture::FromShards(shards);
    const CaptureBuffer ordered = capture.TimeOrderedCopy();
    ASSERT_EQ(ordered.size(), capture.size());
    for (std::size_t i = 1; i < ordered.size(); ++i) {
      ASSERT_LE(ordered[i - 1].time_us, ordered[i].time_us)
          << "time goes back at record " << i;
      if (ordered[i - 1].time_us == ordered[i].time_us) {
        ASSERT_LT(ordered[i - 1].src_port, ordered[i].src_port)
            << "tie out of (shard, within-shard) order at record " << i;
      }
    }
    // The same multiset of records as the shards hold.
    CaptureBuffer got = ordered;
    CaptureBuffer want = capture.FlattenCopy();
    std::sort(got.begin(), got.end(), by_marker);
    std::sort(want.begin(), want.end(), by_marker);
    EXPECT_EQ(got, want);
    // Copying leaves the shard buffers as they were.
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
  const ShardedCapture original = SampleShards();
  const std::string path = TempPath("roundtrip.shards");
  ASSERT_TRUE(WriteShardIndexStatus(path, original).ok());
  // One record count per shard.
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(
      base::io::ReadFramedFile(path, base::io::kTagShards, payload).ok());
  EXPECT_EQ(payload, IndexPayload(2, 4, 135, {2, 130, 3, 0}));

  base::io::IoStatus status;
  auto restored = ReshardFromIndex(path, original.FlattenCopy(), &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ExpectSameShards(restored, original);
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
  ExpectSameShards(restored, original);
  EXPECT_EQ(restored.FlattenCopy(), original.FlattenCopy());
  std::remove(path.c_str());
}

TEST(ShardedCaptureTest, MalformedShardIndexIsPayloadCorrupt) {
  const ShardedCapture original = SampleShards();
  const std::pair<const char*, std::vector<std::uint8_t>> cases[] = {
      {"counts sum short", IndexPayload(2, 4, 135, {2, 130, 2, 0})},
      {"counts sum over", IndexPayload(2, 4, 135, {2, 130, 3, 1})},
      {"too few counts", IndexPayload(2, 4, 135, {2, 130, 3})},
      {"trailing bytes", IndexPayload(2, 4, 135, {2, 130, 3, 0, 0})},
      // The first slice runs from t=40 back to t=0.
      {"unsorted slice", IndexPayload(2, 4, 135, {3, 129, 3, 0})},
      {"record count mismatch", IndexPayload(2, 4, 136, {2, 130, 3, 0})},
      {"version 1", IndexPayload(1, 4, 135, {2, 130, 3, 0})},
      {"empty", {}},
  };
  for (const auto& [name, payload] : cases) {
    SCOPED_TRACE(name);
    base::io::IoStatus status;
    const ShardedCapture restored =
        ReshardPayload(payload, original.FlattenCopy(), status);
    EXPECT_EQ(status.code, base::io::IoCode::kPayloadCorrupt);
    ASSERT_EQ(restored.shard_count(), 1u);
    EXPECT_EQ(restored.shard(0), original.FlattenCopy());
  }
}

TEST(ShardedCaptureTest, MutatedShardIndexFailsTypedOrReslicesExactly) {
  const ShardedCapture original = SampleShards();
  const std::vector<std::uint8_t> payload =
      IndexPayload(2, 4, 135, {2, 130, 3, 0});
  std::mt19937_64 rng(0x5348524400000002ull);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<std::uint8_t> mutant = payload;
    if (round % 3 == 0) {
      mutant.resize(rng() % mutant.size());
    } else if (round % 3 == 1) {
      mutant[rng() % mutant.size()] ^=
          static_cast<std::uint8_t>(1u << (rng() % 8));
    } else {
      for (std::uint64_t n = 1 + rng() % 4; n > 0; --n) {
        mutant.push_back(static_cast<std::uint8_t>(rng()));
      }
    }
    base::io::IoStatus status;
    const ShardedCapture restored =
        ReshardPayload(mutant, original.FlattenCopy(), status);
    if (status.ok()) {
      ExpectSameShards(restored, original);
    } else {
      EXPECT_EQ(status.code, base::io::IoCode::kPayloadCorrupt);
      EXPECT_EQ(restored.shard_count(), 1u);
      EXPECT_EQ(restored.size(), original.size());
    }
  }
}

}  // namespace
}  // namespace clouddns::capture
