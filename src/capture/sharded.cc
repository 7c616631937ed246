#include "capture/sharded.h"

// lint:hot-path
// FlattenCopy() is the merge boundary of the sharded pipeline (DESIGN.md
// §13); everything else here must stay allocation-lean so that wrapping a
// buffer in a ShardedCapture costs nothing over the raw vector.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <queue>
#include <utility>

#include "capture/varint.h"

namespace clouddns::capture {
namespace {

constexpr char kShardIndexMagic[8] = {'C', 'D', 'N', 'S', 'S', 'H', 'R', 'D'};
constexpr std::uint64_t kShardIndexVersion = 1;

}  // namespace

void SortByTimeStable(CaptureBuffer& buffer) {
  std::stable_sort(buffer.begin(), buffer.end(),
                   [](const CaptureRecord& a, const CaptureRecord& b) {
                     return a.time_us < b.time_us;
                   });
}

ShardedCapture::ShardedCapture(CaptureBuffer flat) : size_(flat.size()) {
  shards_.push_back(std::move(flat));
}

ShardedCapture ShardedCapture::FromShards(std::vector<CaptureBuffer> shards) {
  ShardedCapture result;
  result.shards_ = std::move(shards);
  for (const CaptureBuffer& shard : result.shards_) {
    result.size_ += shard.size();
  }
  return result;
}

CaptureBuffer ShardedCapture::FlattenCopy() const {
  if (shards_.size() == 1) return shards_.front();
  // Gather in merge order: each id names the shard whose next record
  // comes next in the stream.
  const std::vector<std::uint32_t> ids = MergeOrderShardIds();
  std::vector<std::size_t> next(shards_.size(), 0);
  CaptureBuffer flat;
  flat.reserve(size_);
  for (const std::uint32_t s : ids) flat.push_back(shards_[s][next[s]++]);
  return flat;
}

std::vector<std::uint32_t> ShardedCapture::MergeOrderShardIds() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(size_);
  if (shards_.size() == 1) {
    ids.assign(size_, 0);
    return ids;
  }
  // K-way cursor walk: a heap entry is (time of the shard's next record,
  // shard); on equal times the lower shard index wins, and each shard's
  // cursor only moves forward, so within-shard order is kept.
  struct Cursor {
    sim::TimeUs time;
    std::size_t shard;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    return a.time != b.time ? a.time > b.time : a.shard > b.shard;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(later)> heap(later);
  std::vector<std::size_t> next(shards_.size(), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].empty()) heap.push({shards_[s][0].time_us, s});
  }
  while (!heap.empty()) {
    auto [time, s] = heap.top();
    heap.pop();
    ids.push_back(static_cast<std::uint32_t>(s));
    if (++next[s] < shards_[s].size()) {
      heap.push({shards_[s][next[s]].time_us, s});
    }
  }
  return ids;
}

// lint:allow(hot-alloc): cache sidecar path string — cold I/O, not the scan loop
base::io::IoStatus WriteShardIndexStatus(const std::string& path,
                                         const ShardedCapture& capture) {
  const std::vector<std::uint32_t> ids = capture.MergeOrderShardIds();

  std::vector<std::uint8_t> bytes;
  bytes.reserve(64 + ids.size() / 32);
  bytes.insert(bytes.end(), std::begin(kShardIndexMagic),
               std::end(kShardIndexMagic));
  PutVarint(bytes, kShardIndexVersion);
  PutVarint(bytes, capture.shard_count());
  PutVarint(bytes, capture.size());
  // Run-length encode the merge-order shard ids: shard streams interleave
  // at burst granularity, so runs are long and the sidecar stays tiny
  // relative to the .cdns capture it annotates.
  std::size_t i = 0;
  while (i < ids.size()) {
    std::size_t j = i;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    PutVarint(bytes, ids[i]);
    PutVarint(bytes, j - i);
    i = j;
  }

  return base::io::WriteFramedFile(path, base::io::kTagShards, bytes);
}

// lint:allow(hot-alloc): cache sidecar path string — cold I/O, not the scan loop
ShardedCapture ReshardFromIndex(const std::string& path, CaptureBuffer flat,
                                base::io::IoStatus* status_out) {
  base::io::IoStatus local_status;
  base::io::IoStatus& status = status_out != nullptr ? *status_out : local_status;
  status = base::io::IoStatus::Ok();

  std::vector<std::uint8_t> bytes;
  status = base::io::ReadFramedFile(path, base::io::kTagShards, bytes);
  if (!status.ok()) return ShardedCapture(std::move(flat));

  // From here down every malformation is payload-level corruption: the
  // frame verified, but the shard-index bytes inside do not describe
  // `flat`.
  status = base::io::IoStatus::Error(
      base::io::IoCode::kPayloadCorrupt,
      "shard index payload malformed or mismatched against the capture");

  std::size_t pos = sizeof(kShardIndexMagic);
  if (bytes.size() < pos ||
      !std::equal(std::begin(kShardIndexMagic), std::end(kShardIndexMagic),
                  bytes.begin())) {
    return ShardedCapture(std::move(flat));
  }
  auto next_varint = [&bytes, &pos](std::uint64_t& value) {
    const auto decoded = GetVarint(bytes, pos);
    value = decoded.value_or(0);
    return decoded.has_value();
  };
  std::uint64_t version = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t record_count = 0;
  if (!next_varint(version) || version != kShardIndexVersion ||
      !next_varint(shard_count) || !next_varint(record_count) ||
      shard_count == 0 || record_count != flat.size()) {
    return ShardedCapture(std::move(flat));
  }

  // Decode and validate all runs before moving a single record, so a
  // truncated or mismatched sidecar falls back cleanly.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> runs;
  std::vector<std::size_t> shard_sizes(
      static_cast<std::size_t>(shard_count), 0);
  std::uint64_t covered = 0;
  while (pos < bytes.size()) {
    std::uint64_t shard = 0;
    std::uint64_t length = 0;
    if (!next_varint(shard) || !next_varint(length) ||
        shard >= shard_count || length == 0 ||
        length > record_count - covered) {
      return ShardedCapture(std::move(flat));
    }
    runs.emplace_back(static_cast<std::uint32_t>(shard), length);
    shard_sizes[static_cast<std::size_t>(shard)] +=
        static_cast<std::size_t>(length);
    covered += length;
  }
  if (covered != record_count) return ShardedCapture(std::move(flat));

  // Each shard's records form a subsequence of the time-sorted flat
  // stream, so every rebuilt shard buffer is itself time-sorted and the
  // re-merge reproduces `flat` byte-for-byte.
  std::vector<CaptureBuffer> shards(static_cast<std::size_t>(shard_count));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].reserve(shard_sizes[s]);
  }
  std::size_t offset = 0;
  for (const auto& [shard, length] : runs) {
    auto first = flat.begin() + static_cast<std::ptrdiff_t>(offset);
    auto last = first + static_cast<std::ptrdiff_t>(length);
    shards[shard].insert(shards[shard].end(), std::make_move_iterator(first),
                         std::make_move_iterator(last));
    offset += static_cast<std::size_t>(length);
  }
  status = base::io::IoStatus::Ok();
  return ShardedCapture::FromShards(std::move(shards));
}

}  // namespace clouddns::capture
