// Capture flatten throughput: ShardedCapture::FlattenCopy, the cursor walk
// over the shard heads (MergeOrderShardIds) followed by a copy-gather of
// the records in that order. items_per_second is flattened records per
// second, comparable across the (shard count, records per shard, burst
// length) shapes below.
//
// The `burst` arg controls run length: shard streams in real captures
// interleave at burst granularity (a resolver's queries cluster in time),
// so one shard emits many records in a row. burst=1 is the fully
// interleaved case where every record switches shard.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "capture/sharded.h"

using namespace clouddns;

namespace {

std::vector<capture::CaptureBuffer> MakeShards(std::size_t shard_count,
                                               std::size_t per_shard,
                                               std::uint64_t burst) {
  std::mt19937_64 rng(20201027);
  std::vector<capture::CaptureBuffer> shards(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    std::uint64_t t = rng() % 1000;
    shards[s].reserve(per_shard);
    for (std::size_t i = 0; i < per_shard; ++i) {
      if (burst > 0 && i % burst == 0) t += rng() % 5000;  // next burst
      t += rng() % 3;
      capture::CaptureRecord record;
      record.time_us = static_cast<sim::TimeUs>(t);
      record.src_port = static_cast<std::uint16_t>(i);
      shards[s].push_back(record);
    }
  }
  return shards;
}

void BM_FlattenCopy(benchmark::State& state) {
  const auto shard_count = static_cast<std::size_t>(state.range(0));
  const auto per_shard = static_cast<std::size_t>(state.range(1));
  const auto burst = static_cast<std::uint64_t>(state.range(2));
  const capture::ShardedCapture capture = capture::ShardedCapture::FromShards(
      MakeShards(shard_count, per_shard, burst));
  for (auto _ : state) {
    capture::CaptureBuffer merged = capture.FlattenCopy();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shard_count * per_shard));
}

// {shard_count, records_per_shard, burst_length}
#define MERGE_SHAPES                                                     \
  Args({2, 200000, 64})      /* two shards, bursty */                    \
      ->Args({2, 200000, 1}) /* two-shard, fully interleaved */          \
      ->Args({16, 25000, 64})  /* default engine sharding, bursty */     \
      ->Args({16, 25000, 1})   /* default sharding, interleaved */       \
      ->Args({16, 25000, 1024}) /* long quiet shards (skewed runs) */

BENCHMARK(BM_FlattenCopy)->MERGE_SHAPES->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
