#include "capture/columnar.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "capture/varint.h"

namespace clouddns::capture {
namespace {

// A hand-built columnar payload: the "CDNS" magic, version 1, a declared
// record count, then the 15 columns in id order. Every column is empty
// except the two dictionaries (ids 3 and 7), which hold just their
// declared entry counts and no entries.
std::vector<std::uint8_t> ForgedPayload(std::uint64_t record_count,
                                        std::uint64_t dict_count) {
  std::vector<std::uint8_t> out = {'C', 'D', 'N', 'S', 0, 0, 0, 1};
  PutVarint(out, record_count);
  for (std::uint8_t id = 0; id < 15; ++id) {
    std::vector<std::uint8_t> column;
    if (id == 3 || id == 7) PutVarint(column, dict_count);
    out.push_back(id);
    PutVarint(out, column.size());
    out.insert(out.end(), column.begin(), column.end());
  }
  return out;
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
  r.rcode = i % 7 == 0 ? dns::Rcode::kNxDomain : dns::Rcode::kNoError;
  r.has_edns = true;
  r.edns_udp_size = i % 3 == 0 ? 512 : 1232;
  r.do_bit = i % 2 == 0;
  r.tc = i % 11 == 0;
  r.query_size = static_cast<std::uint16_t>(40 + i % 30);
  r.response_size = static_cast<std::uint16_t>(100 + i % 400);
  r.tcp_handshake_rtt_us =
      r.transport == dns::Transport::kTcp ? 25000u + static_cast<unsigned>(i) : 0u;
  return r;
}

TEST(VarintTest, RoundTripBoundaries) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          0xffffffffull, ~0ull}) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    std::size_t pos = 0;
    auto back = GetVarint(buf, pos);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, RejectsTruncated) {
  std::vector<std::uint8_t> buf = {0x80, 0x80};
  std::size_t pos = 0;
  EXPECT_FALSE(GetVarint(buf, pos).has_value());
}

TEST(VarintTest, TenByteLimitAndPointerForm) {
  // ~0 takes exactly ten bytes; an eleventh continuation byte is overlong.
  std::vector<std::uint8_t> max;
  PutVarint(max, ~0ull);
  ASSERT_EQ(max.size(), 10u);
  const std::uint8_t* p = max.data();
  auto back = GetVarint(p, max.data() + max.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, ~0ull);
  EXPECT_EQ(p, max.data() + max.size());

  std::vector<std::uint8_t> overlong(10, 0x80);
  overlong.push_back(0x00);
  std::size_t pos = 0;
  EXPECT_FALSE(GetVarint(overlong, pos).has_value());
  p = overlong.data();
  EXPECT_FALSE(GetVarint(p, overlong.data() + overlong.size()).has_value());
}

TEST(ZigzagTest, RoundTrip) {
  for (std::int64_t v :
       std::initializer_list<std::int64_t>{
           0, 1, -1, 12345, -12345, std::numeric_limits<std::int64_t>::max(),
           std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(ColumnarTest, EmptyBufferRoundTrips) {
  auto bytes = EncodeColumnar({});
  auto back = DecodeColumnar(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(ColumnarTest, RoundTripPreservesEveryField) {
  CaptureBuffer records;
  for (int i = 0; i < 500; ++i) records.push_back(SampleRecord(i));
  auto bytes = EncodeColumnar(records);
  auto back = DecodeColumnar(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*back)[i], records[i]) << i;
  }
}

TEST(ColumnarTest, OutOfOrderTimestampsSurvive) {
  // Delta encoding is zigzag, so non-monotonic times must round-trip.
  CaptureBuffer records;
  CaptureRecord a = SampleRecord(1), b = SampleRecord(2);
  a.time_us = 5'000'000;
  b.time_us = 1'000'000;
  records = {a, b};
  auto back = DecodeColumnar(EncodeColumnar(records));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ((*back)[0].time_us, 5'000'000u);
  EXPECT_EQ((*back)[1].time_us, 1'000'000u);
}

TEST(ColumnarTest, RejectsCorruptedHeader) {
  CaptureBuffer records = {SampleRecord(0)};
  auto bytes = EncodeColumnar(records);
  bytes[0] ^= 0xff;
  EXPECT_FALSE(DecodeColumnar(bytes).has_value());
}

TEST(ColumnarTest, RejectsTruncatedBody) {
  CaptureBuffer records;
  for (int i = 0; i < 10; ++i) records.push_back(SampleRecord(i));
  auto bytes = EncodeColumnar(records);
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DecodeColumnar(bytes).has_value());
}

TEST(ColumnarTest, ForgedCountsAreRejectedNotReserved) {
  // The well-formed empty payload decodes; the same bytes declaring a
  // huge record or dictionary count must be rejected, not reserved for
  // (which throws bad_alloc or length_error).
  ASSERT_TRUE(DecodeColumnar(ForgedPayload(0, 0)).has_value());
  for (const std::uint64_t forged : {1ull << 34, 1ull << 62}) {
    std::optional<CaptureBuffer> records;
    EXPECT_NO_THROW(records = DecodeColumnar(ForgedPayload(forged, 0)));
    EXPECT_FALSE(records.has_value()) << "record count " << forged;
    std::optional<CaptureBuffer> dicts;
    EXPECT_NO_THROW(dicts = DecodeColumnar(ForgedPayload(0, forged)));
    EXPECT_FALSE(dicts.has_value()) << "dictionary count " << forged;
  }
  // One record more than the flags column holds is forged too.
  CaptureBuffer one = {SampleRecord(1)};
  auto bytes = EncodeColumnar(one);
  ASSERT_EQ(bytes[8], 1);  // the record-count varint
  bytes[8] = 2;
  EXPECT_FALSE(DecodeColumnar(bytes).has_value());
}

TEST(ColumnarTest, FuzzedInputNeverCrashes) {
  CaptureBuffer records;
  for (int i = 0; i < 50; ++i) records.push_back(SampleRecord(i));
  auto base = EncodeColumnar(records);
  std::mt19937_64 rng(99);
  for (int round = 0; round < 500; ++round) {
    auto mutated = base;
    for (int f = 0; f < 4; ++f) {
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng());
    }
    (void)DecodeColumnar(mutated);  // must not crash or hang
  }
}

TEST(CaptureFileTest, WriteAndReadBack) {
  CaptureBuffer records;
  for (int i = 0; i < 200; ++i) records.push_back(SampleRecord(i));
  std::string path = ::testing::TempDir() + "/capture_test.cdns";
  ASSERT_TRUE(WriteCaptureFileStatus(path, records).ok());
  CaptureBuffer back;
  ASSERT_TRUE(ReadCaptureFileStatus(path, back).ok());
  EXPECT_EQ(back, records);
  std::remove(path.c_str());
}

TEST(CaptureFileTest, ForgedCountInIntactFrameIsPayloadCorrupt) {
  // The frame's CRC covers the forged bytes, so only the payload check
  // stands between them and the dataset cache: it must report corruption
  // (the cache quarantines and rebuilds) rather than throw.
  std::string path = ::testing::TempDir() + "/forged_count.cdns";
  ASSERT_TRUE(base::io::WriteFramedFile(path, base::io::kTagCapture,
                                        ForgedPayload(1ull << 34, 0))
                  .ok());
  CaptureBuffer back;
  EXPECT_EQ(ReadCaptureFileStatus(path, back).code,
            base::io::IoCode::kPayloadCorrupt);
  std::remove(path.c_str());
}

TEST(CaptureFileTest, MissingFileReportsNotFound) {
  CaptureBuffer back;
  EXPECT_EQ(ReadCaptureFileStatus("/nonexistent/path/x.cdns", back).code,
            base::io::IoCode::kNotFound);
}

}  // namespace
}  // namespace clouddns::capture
