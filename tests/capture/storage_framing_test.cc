// On-disk integrity contract for every capture-layer artifact (DESIGN.md
// §14): framed writes round-trip, unframed files are rejected with
// kBadFrame (only the pcap reader accepts raw libpcap), and cross-artifact
// mixups (a sidecar renamed over a capture) are rejected by content tag
// before a payload decoder ever sees the bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/context_cache.h"
#include "base/io.h"
#include "capture/columnar.h"
#include "capture/pcap.h"
#include "capture/sharded.h"
#include "cloud/scenario.h"
#include "../context_testutil.h"

namespace clouddns::capture {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const char* name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

CaptureRecord SampleRecord(int i) {
  CaptureRecord r;
  r.time_us = 1'000'000ull * static_cast<unsigned>(i);
  r.server_id = static_cast<std::uint32_t>(i % 2);
  r.site_id = static_cast<std::uint32_t>(i % 5);
  r.src = i % 3 == 0 ? *net::IpAddress::Parse("2001:db8::1")
                     : *net::IpAddress::Parse("198.51.100.7");
  r.src_port = static_cast<std::uint16_t>(1024 + i);
  r.transport = i % 4 == 0 ? dns::Transport::kTcp : dns::Transport::kUdp;
  r.qname = *dns::Name::Parse("dom" + std::to_string(i % 10) + ".nl");
  r.qtype = i % 2 == 0 ? dns::RrType::kA : dns::RrType::kNs;
  r.rcode = dns::Rcode::kNoError;
  r.has_edns = true;
  r.edns_udp_size = 1232;
  r.query_size = static_cast<std::uint16_t>(40 + i % 30);
  r.response_size = static_cast<std::uint16_t>(100 + i % 400);
  r.tcp_handshake_rtt_us =
      r.transport == dns::Transport::kTcp ? 25000u : 0u;
  return r;
}

CaptureBuffer SampleBuffer(int n) {
  CaptureBuffer records;
  for (int i = 0; i < n; ++i) records.push_back(SampleRecord(i));
  return records;
}

/// Strips the base::io frame off a freshly written artifact and rewrites
/// the bare payload in place.
void RewriteUnframed(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(base::io::ReadFileBytes(path, bytes).ok());
  std::vector<std::uint8_t> payload;
  bool framed = false;
  ASSERT_TRUE(
      base::io::UnwrapFrame(bytes, base::io::kTagAny, payload, framed).ok());
  ASSERT_TRUE(framed) << path << " was not framed to begin with";
  ASSERT_TRUE(base::io::WriteFileAtomic(path, payload).ok());
}

bool StartsWithFrameMagic(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  if (!base::io::ReadFileBytes(path, bytes).ok() || bytes.size() < 8) {
    return false;
  }
  const char magic[] = {'C', 'L', 'D', 'F', 'R', 'A', 'M', '1'};
  return std::equal(std::begin(magic), std::end(magic), bytes.begin());
}

// ---------------------------------------------------------------------------
// Columnar captures

TEST(StorageFramingTest, ColumnarRoundTripsFramed) {
  const std::string path = TempPath("framing_capture.cdns");
  const CaptureBuffer records = SampleBuffer(300);
  ASSERT_TRUE(WriteCaptureFileStatus(path, records).ok());
  EXPECT_TRUE(StartsWithFrameMagic(path));

  CaptureBuffer back;
  ASSERT_TRUE(ReadCaptureFileStatus(path, back).ok());
  EXPECT_TRUE(back == records);
  fs::remove(path);
}

TEST(StorageFramingTest, EmptyCaptureRoundTripsFramed) {
  // A zero-query scenario still writes its capture artifact; the framed
  // payload is just the columnar header.
  const std::string path = TempPath("framing_capture_empty.cdns");
  ASSERT_TRUE(WriteCaptureFileStatus(path, CaptureBuffer{}).ok());
  EXPECT_TRUE(StartsWithFrameMagic(path));

  CaptureBuffer back = SampleBuffer(3);  // must be cleared by the read
  ASSERT_TRUE(ReadCaptureFileStatus(path, back).ok());
  EXPECT_TRUE(back.empty());
  fs::remove(path);
}

TEST(StorageFramingTest, SingleRecordCaptureRoundTripsFramed) {
  const std::string path = TempPath("framing_capture_single.cdns");
  const CaptureBuffer records = SampleBuffer(1);
  ASSERT_TRUE(WriteCaptureFileStatus(path, records).ok());

  CaptureBuffer back;
  ASSERT_TRUE(ReadCaptureFileStatus(path, back).ok());
  EXPECT_TRUE(back == records);
  fs::remove(path);
}

TEST(StorageFramingTest, CaptureFileBytesIdenticalAtEveryThreadCount) {
  // End-to-end determinism of the write path: the bytes that land on
  // disk for the same records must not depend on the worker count.
  const char* prev = std::getenv("CLOUDDNS_THREADS");
  const std::string saved = prev ? prev : "";
  const CaptureBuffer records = SampleBuffer(8000);
  std::vector<std::uint8_t> reference;
  for (const char* threads : {"1", "2", "4", "8"}) {
    setenv("CLOUDDNS_THREADS", threads, 1);
    const std::string path = TempPath("framing_capture_threads.cdns");
    ASSERT_TRUE(WriteCaptureFileStatus(path, records).ok());
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(base::io::ReadFileBytes(path, bytes).ok());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference)
          << "capture bytes diverge at " << threads << " threads";
    }
    CaptureBuffer back;
    ASSERT_TRUE(ReadCaptureFileStatus(path, back).ok());
    EXPECT_TRUE(back == records);
    fs::remove(path);
  }
  if (prev) {
    setenv("CLOUDDNS_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("CLOUDDNS_THREADS");
  }
}

TEST(StorageFramingTest, UnframedArtifactsAreRejected) {
  // Every cache artifact's bare payload — what a file written before the
  // framing change looks like — fails with kBadFrame, so the dataset
  // cache quarantines it instead of trusting unchecksummed bytes.
  const std::string capture_path = TempPath("framing_unframed.cdns");
  ASSERT_TRUE(WriteCaptureFileStatus(capture_path, SampleBuffer(300)).ok());
  RewriteUnframed(capture_path);
  EXPECT_FALSE(StartsWithFrameMagic(capture_path));
  CaptureBuffer back;
  EXPECT_EQ(ReadCaptureFileStatus(capture_path, back).code,
            base::io::IoCode::kBadFrame);

  std::vector<CaptureBuffer> shards(2);
  for (int i = 0; i < 40; ++i) shards[i % 2].push_back(SampleRecord(i));
  const ShardedCapture sharded = ShardedCapture::FromShards(std::move(shards));
  const std::string shard_path = TempPath("framing_unframed.shards");
  ASSERT_TRUE(WriteShardIndexStatus(shard_path, sharded).ok());
  RewriteUnframed(shard_path);
  base::io::IoStatus status;
  const ShardedCapture fallback =
      ReshardFromIndex(shard_path, sharded.FlattenCopy(), &status);
  EXPECT_EQ(status.code, base::io::IoCode::kBadFrame);
  EXPECT_EQ(fallback.shard_count(), 1u);

  cloud::ScenarioResult context;
  context.window_end = 42;
  const std::string context_path = TempPath("framing_unframed.ctx");
  ASSERT_TRUE(analysis::SaveScenarioContextStatus(context_path, context).ok());
  RewriteUnframed(context_path);
  cloud::ScenarioResult loaded;
  EXPECT_EQ(analysis::LoadScenarioContextStatus(context_path, loaded).code,
            base::io::IoCode::kBadFrame);

  fs::remove(capture_path);
  fs::remove(shard_path);
  fs::remove(context_path);
}

TEST(StorageFramingTest, CorruptColumnarReportsATypedCode) {
  const std::string path = TempPath("framing_capture_corrupt.cdns");
  ASSERT_TRUE(WriteCaptureFileStatus(path, SampleBuffer(300)).ok());
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(base::io::ReadFileBytes(path, bytes).ok());
  bytes[bytes.size() / 2] ^= 0x10;
  ASSERT_TRUE(base::io::WriteFileAtomic(path, bytes).ok());

  CaptureBuffer back;
  const base::io::IoStatus status = ReadCaptureFileStatus(path, back);
  EXPECT_EQ(status.code, base::io::IoCode::kTrailerCorrupt);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// pcap exports

TEST(StorageFramingTest, PcapRoundTripsBothFramedAndRaw) {
  const CaptureBuffer records = SampleBuffer(120);
  const std::string framed_path = TempPath("framing_export.pcap");
  const std::string raw_path = TempPath("framing_export_raw.pcap");
  ASSERT_TRUE(WritePcapFileStatus(framed_path, records, true).ok());
  ASSERT_TRUE(WritePcapFileStatus(raw_path, records, false).ok());
  EXPECT_TRUE(StartsWithFrameMagic(framed_path));
  // The raw shape is a classic libpcap file tcpdump opens directly.
  EXPECT_FALSE(StartsWithFrameMagic(raw_path));

  CaptureBuffer from_framed;
  CaptureBuffer from_raw;
  ASSERT_TRUE(ReadPcapFileStatus(framed_path, from_framed).ok());
  ASSERT_TRUE(ReadPcapFileStatus(raw_path, from_raw).ok());
  // pcap round trips are lossy by design; the two read paths must agree
  // on everything the format carries.
  ASSERT_EQ(from_framed.size(), records.size());
  EXPECT_TRUE(from_framed == from_raw);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(from_framed[i].time_us, records[i].time_us);
    EXPECT_EQ(from_framed[i].src, records[i].src);
    EXPECT_EQ(from_framed[i].qname, records[i].qname);
    EXPECT_EQ(from_framed[i].qtype, records[i].qtype);
  }
  fs::remove(framed_path);
  fs::remove(raw_path);
}

// ---------------------------------------------------------------------------
// Shard-index sidecars

TEST(StorageFramingTest, ShardIndexRoundTripsFramed) {
  // Three time-sorted shards whose times interleave.
  std::vector<CaptureBuffer> shards(3);
  for (int i = 0; i < 200; ++i) shards[i % 3].push_back(SampleRecord(i));
  const ShardedCapture original = ShardedCapture::FromShards(std::move(shards));
  const std::string path = TempPath("framing_index.shards");
  ASSERT_TRUE(WriteShardIndexStatus(path, original).ok());
  EXPECT_TRUE(StartsWithFrameMagic(path));

  base::io::IoStatus status;
  ShardedCapture resharded =
      ReshardFromIndex(path, original.FlattenCopy(), &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(resharded.shard_count(), original.shard_count());
  for (std::size_t s = 0; s < original.shard_count(); ++s) {
    EXPECT_EQ(resharded.shard(s), original.shard(s)) << "shard " << s;
  }
  EXPECT_TRUE(resharded == original);
  fs::remove(path);
}

TEST(StorageFramingTest, MissingShardIndexIsBenignNotCorrupt) {
  base::io::IoStatus status;
  const ShardedCapture fallback = ReshardFromIndex(
      TempPath("framing_no_such.shards"), SampleBuffer(10), &status);
  EXPECT_EQ(status.code, base::io::IoCode::kNotFound);
  EXPECT_EQ(fallback.shard_count(), 1u);
  EXPECT_EQ(fallback.size(), 10u);
}

// ---------------------------------------------------------------------------
// Context sidecars

TEST(StorageFramingTest, ContextSidecarLoadsFramed) {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNz;
  config.year = 2019;
  config.client_queries = 0;  // context only; no traffic needed
  config.zone_scale = 0.001;
  const cloud::ScenarioResult original = cloud::RunScenario(config);

  const std::string path = TempPath("framing_context.ctx");
  ASSERT_TRUE(analysis::SaveScenarioContextStatus(path, original).ok());
  EXPECT_TRUE(StartsWithFrameMagic(path));

  cloud::ScenarioResult loaded;
  ASSERT_TRUE(analysis::LoadScenarioContextStatus(path, loaded).ok());
  testutil::ExpectSameContext(loaded, original);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Cross-artifact mixups

TEST(StorageFramingTest, ContentTagsRejectRenamedArtifacts) {
  // A shard sidecar renamed over a capture path: the frame verifies, but
  // the content tag names the wrong artifact kind — rejected before the
  // columnar decoder runs.
  std::vector<CaptureBuffer> shards(2);
  for (int i = 0; i < 40; ++i) shards[i % 2].push_back(SampleRecord(i));
  const ShardedCapture capture = ShardedCapture::FromShards(std::move(shards));
  const std::string shard_path = TempPath("framing_mixup.shards");
  const std::string capture_path = TempPath("framing_mixup.cdns");
  ASSERT_TRUE(WriteShardIndexStatus(shard_path, capture).ok());
  fs::rename(shard_path, capture_path);

  CaptureBuffer out;
  EXPECT_EQ(ReadCaptureFileStatus(capture_path, out).code,
            base::io::IoCode::kBadTag);
  fs::remove(capture_path);
}

}  // namespace
}  // namespace clouddns::capture
