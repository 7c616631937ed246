#include "capture/pcap.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <vector>

#include "dns/message.h"

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

void PutBE16(std::vector<std::uint8_t>& out, std::size_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

/// A pcap holding one Ethernet/IPv4 frame whose header is `ihl_words`
/// 32-bit words long (5 is the minimum a sender may write; 4 leaves out
/// the destination address) around the transport bytes `l4`.
std::vector<std::uint8_t> Ipv4Pcap(std::size_t ihl_words, std::uint8_t proto,
                                   const std::vector<std::uint8_t>& l4) {
  std::vector<std::uint8_t> frame(12, 0x02);  // MAC addresses
  PutBE16(frame, 0x0800);
  const std::size_t ihl = ihl_words * 4;
  frame.push_back(static_cast<std::uint8_t>(0x40 | ihl_words));
  frame.push_back(0);
  PutBE16(frame, ihl + l4.size());
  for (int i = 0; i < 4; ++i) frame.push_back(0);  // id, fragment
  frame.push_back(64);
  frame.push_back(proto);
  PutBE16(frame, 0);                                  // checksum
  for (std::uint8_t b : {198, 51, 100, 7}) frame.push_back(b);
  for (std::size_t i = 16; i < ihl; ++i) frame.push_back(53);  // dst, ...
  frame.insert(frame.end(), l4.begin(), l4.end());

  std::vector<std::uint8_t> bytes = EncodePcap({});
  for (int i = 0; i < 8; ++i) bytes.push_back(0);  // timestamp
  for (int copy = 0; copy < 2; ++copy) {           // incl_len, orig_len
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(frame.size() >> (8 * i)));
    }
  }
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  return bytes;
}

dns::WireBuffer Query(std::uint16_t id) {
  return dns::Message::MakeQuery(id, *dns::Name::Parse("a.nl"),
                                 dns::RrType::kA, std::nullopt)
      .Encode();
}

std::size_t Decoded(const std::vector<std::uint8_t>& bytes) {
  auto decoded = DecodePcap(bytes);
  return decoded ? decoded->size() : 0;
}

TEST(PcapTest, Ipv4HeaderShorterThanFiveWordsIsSkipped) {
  const dns::WireBuffer query = Query(7);
  std::vector<std::uint8_t> udp;
  PutBE16(udp, 54321);
  PutBE16(udp, 53);
  PutBE16(udp, 8 + query.size());
  PutBE16(udp, 0);
  udp.insert(udp.end(), query.begin(), query.end());
  EXPECT_EQ(Decoded(Ipv4Pcap(5, 17, udp)), 1u);
  // With IHL 4 the UDP header would start inside the IPv4 header.
  EXPECT_EQ(Decoded(Ipv4Pcap(4, 17, udp)), 0u);
}

TEST(PcapTest, TcpDataOffsetBelowFiveWordsIsSkipped) {
  const dns::WireBuffer query = Query(53);
  std::vector<std::uint8_t> tcp;
  PutBE16(tcp, 54321);
  PutBE16(tcp, 53);
  for (int i = 0; i < 8; ++i) tcp.push_back(0);  // seq, ack
  tcp.push_back(0x50);                            // data offset 5
  tcp.push_back(0x18);
  for (int i = 0; i < 6; ++i) tcp.push_back(0);  // window, sum, urgent
  PutBE16(tcp, query.size());
  tcp.insert(tcp.end(), query.begin(), query.end());
  EXPECT_EQ(Decoded(Ipv4Pcap(5, 6, tcp)), 1u);

  // A segment whose data offset is 0: read from the top of the TCP
  // header, its source port is the query's length prefix and the query
  // (id 53) doubles as the destination port.
  std::vector<std::uint8_t> offset0;
  PutBE16(offset0, query.size());
  offset0.insert(offset0.end(), query.begin(), query.end());
  ASSERT_EQ(offset0[12] >> 4, 0);
  EXPECT_EQ(Decoded(Ipv4Pcap(5, 6, offset0)), 0u);
}

TEST(PcapTest, MutatedInputNeverThrowsAndReencodesToAFixedPoint) {
  CaptureRecord no_edns = QueryRecord("10.0.0.1", dns::Transport::kUdp);
  no_edns.has_edns = false;
  no_edns.edns_udp_size = 0;
  no_edns.do_bit = false;
  const std::vector<std::uint8_t> base = EncodePcap({
      QueryRecord("198.51.100.7", dns::Transport::kUdp),
      QueryRecord("2001:db8::7", dns::Transport::kUdp),
      QueryRecord("198.51.100.8", dns::Transport::kTcp),
      QueryRecord("2001:db8::9", dns::Transport::kTcp),
      no_edns,
  });

  std::mt19937_64 rng(1024);
  std::size_t with_records = 0;
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::uint8_t> bytes = base;
    for (std::uint64_t edits = 1 + rng() % 4; edits > 0; --edits) {
      // Mostly byte flips past the global header; now and then a cut.
      if (rng() % 8 == 0) {
        bytes.resize(24 + rng() % (bytes.size() - 24));
      } else if (bytes.size() > 24) {
        bytes[24 + rng() % (bytes.size() - 24)] =
            static_cast<std::uint8_t>(rng());
      }
    }
    SCOPED_TRACE("case " + std::to_string(i));
    std::optional<CaptureBuffer> first;
    ASSERT_NO_THROW(first = DecodePcap(bytes));
    ASSERT_TRUE(first.has_value());  // the global header is intact
    if (!first->empty()) ++with_records;
    const auto once = DecodePcap(EncodePcap(*first));
    ASSERT_TRUE(once.has_value());
    ASSERT_EQ(once->size(), first->size());
    const auto twice = DecodePcap(EncodePcap(*once));
    ASSERT_TRUE(twice.has_value());
    EXPECT_EQ(*twice, *once);
  }
  EXPECT_GT(with_records, 3000u);  // most edits leave records to re-encode
}

}  // namespace
}  // namespace clouddns::capture
