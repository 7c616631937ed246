#include "capture/sharded.h"

// lint:hot-path
// FlattenCopy() is the one copy the dataset write path makes (DESIGN.md
// §13); everything else here must stay allocation-lean so that wrapping a
// buffer in a ShardedCapture costs nothing over the raw vector.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>

#include "capture/varint.h"

namespace clouddns::capture {
namespace {

constexpr char kShardIndexMagic[8] = {'C', 'D', 'N', 'S', 'S', 'H', 'R', 'D'};
constexpr std::uint64_t kShardIndexVersion = 2;

constexpr auto kEarlierTime = [](const CaptureRecord& a,
                                 const CaptureRecord& b) {
  return a.time_us < b.time_us;
};

/// The per-shard record counts of a `.shards` payload, or nullopt when
/// the payload is malformed, when its counts do not add up to `flat`, or
/// when a slice of `flat` is not time-sorted (FromShards' precondition).
std::optional<std::vector<std::size_t>> ShardCounts(
    const std::vector<std::uint8_t>& bytes, const CaptureBuffer& flat) {
  if (bytes.size() < sizeof(kShardIndexMagic) ||
      !std::equal(std::begin(kShardIndexMagic), std::end(kShardIndexMagic),
                  bytes.begin())) {
    return std::nullopt;
  }
  std::size_t pos = sizeof(kShardIndexMagic);
  const auto version = GetVarint(bytes, pos);
  const auto shard_count = GetVarint(bytes, pos);
  const auto total = GetVarint(bytes, pos);
  // Every count takes at least one byte, which bounds the allocation.
  if (version != kShardIndexVersion || !shard_count || total != flat.size() ||
      *shard_count > bytes.size() - pos) {
    return std::nullopt;
  }
  std::vector<std::size_t> counts;
  counts.reserve(static_cast<std::size_t>(*shard_count));
  auto first = flat.begin();
  while (counts.size() < *shard_count) {
    const auto count = GetVarint(bytes, pos);
    if (!count || *count > static_cast<std::uint64_t>(flat.end() - first)) {
      return std::nullopt;
    }
    const auto last = first + static_cast<std::ptrdiff_t>(*count);
    if (!std::is_sorted(first, last, kEarlierTime)) return std::nullopt;
    counts.push_back(static_cast<std::size_t>(*count));
    first = last;
  }
  if (first != flat.end() || pos != bytes.size()) return std::nullopt;
  return counts;
}

}  // namespace

void SortByTimeStable(CaptureBuffer& buffer) {
  std::stable_sort(buffer.begin(), buffer.end(), kEarlierTime);
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
  CaptureBuffer flat;
  flat.reserve(size_);
  for (const CaptureBuffer& shard : shards_) {
    flat.insert(flat.end(), shard.begin(), shard.end());
  }
  return flat;
}

CaptureBuffer ShardedCapture::TimeOrderedCopy() const {
  // Each shard is time-sorted and a stable sort keeps shard order on
  // ties: the (time, shard, within-shard) order.
  CaptureBuffer flat = FlattenCopy();
  SortByTimeStable(flat);
  return flat;
}

// lint:allow(hot-alloc): cache sidecar path string — cold I/O, not the scan loop
base::io::IoStatus WriteShardIndexStatus(const std::string& path,
                                         const ShardedCapture& capture) {
  std::vector<std::uint8_t> bytes(std::begin(kShardIndexMagic),
                                  std::end(kShardIndexMagic));
  PutVarint(bytes, kShardIndexVersion);
  PutVarint(bytes, capture.shard_count());
  PutVarint(bytes, capture.size());
  for (std::size_t s = 0; s < capture.shard_count(); ++s) {
    PutVarint(bytes, capture.shard(s).size());
  }
  return base::io::WriteFramedFile(path, base::io::kTagShards, bytes);
}

// lint:allow(hot-alloc): cache sidecar path string — cold I/O, not the scan loop
ShardedCapture ReshardFromIndex(const std::string& path, CaptureBuffer flat,
                                base::io::IoStatus* status_out) {
  base::io::IoStatus local_status;
  base::io::IoStatus& status = status_out != nullptr ? *status_out : local_status;

  std::vector<std::uint8_t> bytes;
  status = base::io::ReadFramedFile(path, base::io::kTagShards, bytes);
  if (!status.ok()) return ShardedCapture(std::move(flat));

  // The frame verified, so a mismatch is payload-level corruption.
  const auto counts = ShardCounts(bytes, flat);
  if (!counts) {
    status = base::io::IoStatus::Error(
        base::io::IoCode::kPayloadCorrupt,
        "shard index payload malformed or mismatched against the capture");
    return ShardedCapture(std::move(flat));
  }

  std::vector<CaptureBuffer> shards;
  shards.reserve(counts->size());
  auto first = flat.begin();
  for (const std::size_t count : *counts) {
    const auto last = first + static_cast<std::ptrdiff_t>(count);
    shards.emplace_back(std::make_move_iterator(first),
                        std::make_move_iterator(last));
    first = last;
  }
  return ShardedCapture::FromShards(std::move(shards));
}

}  // namespace clouddns::capture
