#include "capture/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace clouddns::capture {
namespace {

CaptureRecord QueryRecord(const char* src, dns::Transport transport) {
  CaptureRecord r;
  r.time_us = 1'588'723'200'000'000ull + 123'456;  // 2020-05-06-ish
  r.src = *net::IpAddress::Parse(src);
  r.src_port = 54321;
  r.transport = transport;
  r.qname = *dns::Name::Parse("www.dom7.nl");
  r.qtype = dns::RrType::kAaaa;
  r.has_edns = true;
  r.edns_udp_size = 1232;
  r.do_bit = true;
  return r;
}

TEST(PcapTest, GlobalHeaderIsClassicLibpcap) {
  auto bytes = EncodePcap({});
  ASSERT_EQ(bytes.size(), 24u);
  // Little-endian magic 0xa1b2c3d4 and LINKTYPE_ETHERNET.
  EXPECT_EQ(bytes[0], 0xd4);
  EXPECT_EQ(bytes[1], 0xc3);
  EXPECT_EQ(bytes[2], 0xb2);
  EXPECT_EQ(bytes[3], 0xa1);
  EXPECT_EQ(bytes[20], 1);
}

TEST(PcapTest, UdpV4QueryRoundTrips) {
  CaptureBuffer records = {QueryRecord("198.51.100.7", dns::Transport::kUdp)};
  auto decoded = DecodePcap(EncodePcap(records));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  const CaptureRecord& r = (*decoded)[0];
  EXPECT_EQ(r.time_us, records[0].time_us);
  EXPECT_EQ(r.src, records[0].src);
  EXPECT_EQ(r.src_port, records[0].src_port);
  EXPECT_EQ(r.transport, dns::Transport::kUdp);
  EXPECT_EQ(r.qname, records[0].qname);
  EXPECT_EQ(r.qtype, dns::RrType::kAaaa);
  EXPECT_TRUE(r.has_edns);
  EXPECT_EQ(r.edns_udp_size, 1232);
  EXPECT_TRUE(r.do_bit);
}

TEST(PcapTest, TcpAndV6VariantsRoundTrip) {
  CaptureBuffer records = {
      QueryRecord("2001:db8::7", dns::Transport::kUdp),
      QueryRecord("198.51.100.7", dns::Transport::kTcp),
      QueryRecord("2001:db8::9", dns::Transport::kTcp),
  };
  auto decoded = DecodePcap(EncodePcap(records));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_TRUE((*decoded)[0].src.is_v6());
  EXPECT_EQ((*decoded)[1].transport, dns::Transport::kTcp);
  EXPECT_EQ((*decoded)[2].transport, dns::Transport::kTcp);
  EXPECT_EQ((*decoded)[2].qname, records[2].qname);
}

TEST(PcapTest, NoEdnsQuerySurvives) {
  CaptureRecord r = QueryRecord("10.0.0.1", dns::Transport::kUdp);
  r.has_edns = false;
  r.edns_udp_size = 0;
  r.do_bit = false;
  auto decoded = DecodePcap(EncodePcap({r}));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_FALSE((*decoded)[0].has_edns);
  EXPECT_EQ((*decoded)[0].edns_udp_size, 0);
}

TEST(PcapTest, RejectsWrongMagic) {
  auto bytes = EncodePcap({});
  bytes[0] ^= 0xff;
  EXPECT_FALSE(DecodePcap(bytes).has_value());
}

TEST(PcapTest, SkipsNonDnsFramesAndTruncatedTail) {
  CaptureBuffer records = {QueryRecord("198.51.100.7", dns::Transport::kUdp),
                           QueryRecord("198.51.100.8", dns::Transport::kUdp)};
  auto bytes = EncodePcap(records);
  // Truncate the second packet mid-frame: the decoder must keep the first.
  ASSERT_GT(bytes.size(), 10u);
  bytes.erase(bytes.end() - 10, bytes.end());
  auto decoded = DecodePcap(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 1u);
}

/// Encodes one record and appends `trailer` to its frame, fixing the
/// record header's captured and original lengths, as a capture of a
/// padded or FCS-carrying Ethernet frame would hold it.
std::vector<std::uint8_t> PcapWithTrailer(const CaptureRecord& record,
                                          std::size_t trailer) {
  auto bytes = EncodePcap({record});
  const std::size_t frame_len = bytes.size() - 24 - 16;
  bytes.insert(bytes.end(), trailer, 0xee);
  const auto padded = static_cast<std::uint32_t>(frame_len + trailer);
  for (std::size_t field : {24u + 8u, 24u + 12u}) {  // incl_len, orig_len
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[field + i] = static_cast<std::uint8_t>(padded >> (8 * i));
    }
  }
  return bytes;
}

TEST(PcapTest, EthernetPaddedQueryIsKept) {
  // A ". NS" query without EDNS is a 59-byte frame; Ethernet pads it to 60.
  CaptureRecord r = QueryRecord("198.51.100.7", dns::Transport::kUdp);
  r.qname = dns::Name();
  r.qtype = dns::RrType::kNs;
  r.has_edns = false;
  r.edns_udp_size = 0;
  r.do_bit = false;
  ASSERT_EQ(EncodePcap({r}).size(), 24u + 16u + 59u);
  auto decoded = DecodePcap(PcapWithTrailer(r, 1));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_TRUE((*decoded)[0].qname.IsRoot());
  EXPECT_EQ((*decoded)[0].qtype, dns::RrType::kNs);
  EXPECT_EQ((*decoded)[0].query_size, 17);  // 12-byte header + question
}

TEST(PcapTest, FcsTrailerIsNotPayload) {
  for (const char* src : {"198.51.100.7", "2001:db8::7"}) {
    CaptureRecord r = QueryRecord(src, dns::Transport::kUdp);
    auto plain = DecodePcap(EncodePcap({r}));
    ASSERT_TRUE(plain.has_value());
    ASSERT_EQ(plain->size(), 1u);
    auto decoded = DecodePcap(PcapWithTrailer(r, 4));
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u) << src;
    EXPECT_EQ((*decoded)[0].qname, r.qname);
    EXPECT_EQ((*decoded)[0].query_size, (*plain)[0].query_size);
  }
}

TEST(PcapTest, FileRoundTrip) {
  CaptureBuffer records = {QueryRecord("198.51.100.7", dns::Transport::kUdp)};
  std::string path = ::testing::TempDir() + "/clouddns_test.pcap";
  ASSERT_TRUE(WritePcapFileStatus(path, records).ok());
  CaptureBuffer decoded;
  ASSERT_TRUE(ReadPcapFileStatus(path, decoded).ok());
  EXPECT_EQ(decoded.size(), 1u);
  std::remove(path.c_str());
}

TEST(PcapTest, Ipv4HeaderChecksumIsValid) {
  auto bytes = EncodePcap({QueryRecord("198.51.100.7", dns::Transport::kUdp)});
  // Frame starts after the 24-byte global header + 16-byte record header;
  // the IPv4 header starts after 14 bytes of Ethernet.
  const std::uint8_t* ip = bytes.data() + 24 + 16 + 14;
  std::uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) {
    sum += static_cast<std::uint32_t>((ip[i] << 8) | ip[i + 1]);
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  EXPECT_EQ(sum, 0xffffu);  // one's-complement sum over a valid header
}

}  // namespace
}  // namespace clouddns::capture
