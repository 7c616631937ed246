#include "dns/rdata.h"

#include <gtest/gtest.h>

#include "dns/record.h"

namespace clouddns::dns {
namespace {

// Encodes rdata standalone (fresh writer), then decodes and compares.
Rdata RoundTrip(RrType type, const Rdata& rdata) {
  WireBuffer buf;
  WireWriter writer(buf);
  EncodeRdata(rdata, writer);
  WireReader reader(buf);
  Rdata out;
  EXPECT_TRUE(
      DecodeRdata(type, static_cast<std::uint16_t>(buf.size()), reader, out));
  return out;
}

TEST(RdataTest, ARoundTrip) {
  Rdata r = ARdata{net::Ipv4Address(203, 0, 113, 7)};
  EXPECT_EQ(RoundTrip(RrType::kA, r), r);
}

TEST(RdataTest, AaaaRoundTrip) {
  Rdata r = AaaaRdata{*net::Ipv6Address::Parse("2001:db8::53")};
  EXPECT_EQ(RoundTrip(RrType::kAaaa, r), r);
}

TEST(RdataTest, NsRoundTrip) {
  Rdata r = NsRdata{*Name::Parse("ns1.dns.nl")};
  EXPECT_EQ(RoundTrip(RrType::kNs, r), r);
}

TEST(RdataTest, CnameAndPtrRoundTrip) {
  Rdata c = CnameRdata{*Name::Parse("real.example.nz")};
  EXPECT_EQ(RoundTrip(RrType::kCname, c), c);
  Rdata p = PtrRdata{*Name::Parse("resolver.ams2.facebook.example")};
  EXPECT_EQ(RoundTrip(RrType::kPtr, p), p);
}

TEST(RdataTest, MxRoundTrip) {
  Rdata r = MxRdata{10, *Name::Parse("mail.example.nl")};
  EXPECT_EQ(RoundTrip(RrType::kMx, r), r);
}

TEST(RdataTest, TxtRoundTrip) {
  TxtRdata txt;
  txt.strings = {"v=spf1 -all", "second string"};
  Rdata r = txt;
  EXPECT_EQ(RoundTrip(RrType::kTxt, r), r);
}

TEST(RdataTest, EmptyTxtRoundTrip) {
  Rdata r = TxtRdata{};
  EXPECT_EQ(RoundTrip(RrType::kTxt, r), r);
}

TEST(RdataTest, SoaRoundTrip) {
  SoaRdata soa;
  soa.mname = *Name::Parse("ns1.dns.nl");
  soa.rname = *Name::Parse("hostmaster.dns.nl");
  soa.serial = 2020041100;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = 600;
  Rdata r = soa;
  EXPECT_EQ(RoundTrip(RrType::kSoa, r), r);
}

TEST(RdataTest, SrvRoundTrip) {
  Rdata r = SrvRdata{10, 20, 853, *Name::Parse("dot.example.nl")};
  EXPECT_EQ(RoundTrip(RrType::kSrv, r), r);
}

TEST(RdataTest, DsRoundTrip) {
  Rdata r = DsRdata{12345, 13, 2, {0xde, 0xad, 0xbe, 0xef}};
  EXPECT_EQ(RoundTrip(RrType::kDs, r), r);
}

TEST(RdataTest, DnskeyRoundTrip) {
  Rdata r = DnskeyRdata{257, 3, 13, {1, 2, 3, 4, 5, 6, 7, 8}};
  EXPECT_EQ(RoundTrip(RrType::kDnskey, r), r);
}

TEST(RdataTest, RrsigRoundTrip) {
  RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(RrType::kNs);
  sig.algorithm = 13;
  sig.labels = 1;
  sig.original_ttl = 3600;
  sig.expiration = 1600000000;
  sig.inception = 1598000000;
  sig.key_tag = 4242;
  sig.signer = *Name::Parse("nl");
  sig.signature = {9, 8, 7};
  Rdata r = sig;
  EXPECT_EQ(RoundTrip(RrType::kRrsig, r), r);
}

TEST(RdataTest, NsecRoundTripSingleWindow) {
  NsecRdata nsec;
  nsec.next = *Name::Parse("b.nl");
  nsec.types = {RrType::kA, RrType::kNs, RrType::kSoa, RrType::kAaaa,
                RrType::kDs};
  Rdata r = nsec;
  auto decoded = RoundTrip(RrType::kNsec, r);
  // Decode returns types sorted ascending; our input is already ascending.
  EXPECT_EQ(decoded, r);
}

TEST(RdataTest, NsecBitmapSortsAndDeduplicates) {
  NsecRdata nsec;
  nsec.next = *Name::Parse("z.nl");
  nsec.types = {RrType::kAaaa, RrType::kA, RrType::kA};
  WireBuffer buf;
  WireWriter writer(buf);
  EncodeRdata(nsec, writer);
  WireReader reader(buf);
  Rdata out;
  ASSERT_TRUE(DecodeRdata(RrType::kNsec,
                          static_cast<std::uint16_t>(buf.size()), reader, out));
  const auto& decoded = std::get<NsecRdata>(out);
  ASSERT_EQ(decoded.types.size(), 2u);
  EXPECT_EQ(decoded.types[0], RrType::kA);
  EXPECT_EQ(decoded.types[1], RrType::kAaaa);
}

TEST(RdataTest, NsecBitmapWritesWindowsInAscendingOrder) {
  // Types 1 (A) and 46 (RRSIG) in window 0, 257 in window 1, 32769 in
  // window 0x80, given out of order.
  const RrType types[] = {static_cast<RrType>(32769), RrType::kRrsig,
                          static_cast<RrType>(257), RrType::kA,
                          RrType::kRrsig};
  WireBuffer buf;
  WireWriter writer(buf);
  EncodeTypeBitmap(types, writer);
  const WireBuffer expected = {0x00, 0x06, 0x40, 0x00, 0x00, 0x00, 0x00, 0x02,
                               0x01, 0x01, 0x40, 0x80, 0x01, 0x40};
  EXPECT_EQ(buf, expected);
}

TEST(RdataTest, UnknownTypeFallsBackToRaw) {
  Rdata r = RawRdata{{0x11, 0x22, 0x33}};
  auto decoded = RoundTrip(static_cast<RrType>(99), r);
  EXPECT_EQ(decoded, r);
}

TEST(RdataTest, RejectsTruncatedA) {
  WireBuffer buf = {1, 2, 3};
  WireReader reader(buf);
  Rdata out;
  EXPECT_FALSE(DecodeRdata(RrType::kA, 3, reader, out));
}

TEST(RdataTest, RejectsWrongLengthA) {
  WireBuffer buf = {1, 2, 3, 4, 5};
  WireReader reader(buf);
  Rdata out;
  EXPECT_FALSE(DecodeRdata(RrType::kA, 5, reader, out));
}

TEST(RdataTest, RejectsRdlengthBeyondBuffer) {
  WireBuffer buf = {1, 2};
  WireReader reader(buf);
  Rdata out;
  EXPECT_FALSE(DecodeRdata(RrType::kTxt, 10, reader, out));
}

TEST(RdataTest, RejectsTxtStringOverrunningRdlength) {
  // TXT with a string length that crosses the rdata boundary.
  WireBuffer buf = {5, 'a', 'b'};
  WireReader reader(buf);
  Rdata out;
  EXPECT_FALSE(DecodeRdata(RrType::kTxt, 3, reader, out));
}

TEST(RdataTest, RejectsShortDs) {
  WireBuffer buf = {0, 1, 2};
  WireReader reader(buf);
  Rdata out;
  EXPECT_FALSE(DecodeRdata(RrType::kDs, 3, reader, out));
}

TEST(RdataTest, ToStringRendersKeyTypes) {
  EXPECT_EQ(RdataToString(ARdata{net::Ipv4Address(8, 8, 8, 8)}), "8.8.8.8");
  EXPECT_EQ(RdataToString(NsRdata{*Name::Parse("ns1.nl")}), "ns1.nl");
  EXPECT_EQ(RdataToString(MxRdata{5, *Name::Parse("mx.nl")}), "5 mx.nl");
  EXPECT_EQ(RdataToString(DsRdata{1, 13, 2, {0xab}}), "1 13 2 ab");
}

TEST(RecordHelpersTest, BuildExpectedRecords) {
  Name name = *Name::Parse("example.nl");
  auto a = MakeA(name, net::Ipv4Address(192, 0, 2, 1), 300);
  EXPECT_EQ(a.type, RrType::kA);
  EXPECT_EQ(a.ttl, 300u);
  auto ns = MakeNs(name, *Name::Parse("ns1.example.nl"), 3600);
  EXPECT_EQ(ns.type, RrType::kNs);
  auto mx = MakeMx(name, 10, *Name::Parse("mail.example.nl"), 3600);
  EXPECT_EQ(std::get<MxRdata>(mx.rdata).preference, 10);
  auto txt = MakeTxt(name, "hello", 60);
  EXPECT_EQ(std::get<TxtRdata>(txt.rdata).strings.size(), 1u);
}

}  // namespace
}  // namespace clouddns::dns
