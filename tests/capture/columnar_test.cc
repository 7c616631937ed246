#include "capture/columnar.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "capture/varint.h"

namespace clouddns::capture {
namespace {

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

TEST(CaptureFileTest, MissingFileReportsNotFound) {
  CaptureBuffer back;
  EXPECT_EQ(ReadCaptureFileStatus("/nonexistent/path/x.cdns", back).code,
            base::io::IoCode::kNotFound);
}

}  // namespace
}  // namespace clouddns::capture
