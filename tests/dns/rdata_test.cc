#include "dns/rdata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

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
  EXPECT_EQ(RdataToString(NsRdata{*Name::Parse("ns1.nl")}), "ns1.nl.");
  EXPECT_EQ(RdataToString(MxRdata{5, *Name::Parse("mx.nl")}), "5 mx.nl.");
  EXPECT_EQ(RdataToString(DsRdata{1, 13, 2, {0xab}}), "1 13 2 ab");
}

TEST(RdataTest, ToStringRendersEverySoaAndRrsigField) {
  SoaRdata soa;
  soa.mname = Name{};
  soa.rname = *Name::Parse("hostmaster.nl");
  soa.serial = 2020040500;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = 600;
  EXPECT_EQ(RdataToString(soa),
            ". hostmaster.nl. 2020040500 7200 3600 1209600 600");

  RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(RrType::kDnskey);
  sig.algorithm = 13;
  sig.labels = 1;
  sig.original_ttl = 172800;
  sig.expiration = 1590969600;
  sig.inception = 1588291200;
  sig.key_tag = 4242;
  sig.signer = *Name::Parse("nl");
  sig.signature = {0x0f, 0xa0};
  EXPECT_EQ(RdataToString(sig),
            "DNSKEY 13 1 172800 1590969600 1588291200 4242 nl. 0fa0");

  NsecRdata nsec{*Name::Parse("b.nl"),
                 {RrType::kNs, RrType::kDs, static_cast<RrType>(999)}};
  EXPECT_EQ(RdataToString(nsec), "b.nl. NS DS TYPE999");
  EXPECT_EQ(RdataToString(RawRdata{{0x11, 0x22}}), "\\# 2 1122");
  EXPECT_EQ(RdataToString(RawRdata{}), "\\# 0");
  EXPECT_EQ(RdataToString(TxtRdata{{"a b", ""}}), "\"a b\" \"\"");
}

/// Splits presentation text at single spaces, keeping quoted strings whole
/// (without their quotes, with their escapes), as a master-file tokenizer
/// would.
std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> tokens;
  for (std::size_t pos = 0; pos < text.size();) {
    if (text[pos] == '"') {
      std::size_t close = pos + 1;
      while (text[close] != '"') close += text[close] == '\\' ? 2 : 1;
      tokens.push_back(text.substr(pos + 1, close - pos - 1));
      pos = close + 2;
    } else {
      const std::size_t space = std::min(text.find(' ', pos), text.size());
      tokens.push_back(text.substr(pos, space - pos));
      pos = space + 1;
    }
  }
  return tokens;
}

TEST(RdataTest, PresentationTextParsesBackToEveryForm) {
  RrsigRdata sig{static_cast<std::uint16_t>(RrType::kA), 8, 2, 3600, 20, 10,
                 77, *Name::Parse("example.nl"), {0xde, 0xad}};
  const std::pair<RrType, Rdata> cases[] = {
      {RrType::kA, ARdata{net::Ipv4Address(192, 0, 2, 1)}},
      {RrType::kAaaa, AaaaRdata{*net::Ipv6Address::Parse("2001:db8::1")}},
      {RrType::kNs, NsRdata{*Name::Parse("ns1.nl")}},
      {RrType::kCname, CnameRdata{Name{}}},
      {RrType::kPtr, PtrRdata{*Name::Parse("host.example")}},
      {RrType::kMx, MxRdata{65535, *Name::Parse("mx.nl")}},
      {RrType::kTxt, TxtRdata{{"v=spf1 -all", "", std::string(255, 'x')}}},
      {RrType::kTxt, TxtRdata{{std::string("say \"hi\" \\ \0!", 13)}}},
      {RrType::kSoa, SoaRdata{Name{}, *Name::Parse("h.nl"), 4294967295u, 1,
                              2, 3, 4}},
      {RrType::kSrv, SrvRdata{1, 2, 5060, *Name::Parse("sip.nl")}},
      {RrType::kDs, DsRdata{12345, 8, 2, {0xde, 0xad, 0xbe, 0xef}}},
      {RrType::kDnskey, DnskeyRdata{257, 3, 13, {0x01, 0x02}}},
      {RrType::kRrsig, sig},
      {RrType::kNsec, NsecRdata{*Name::Parse("b.nl"),
                                {RrType::kA, static_cast<RrType>(4000)}}},
      {static_cast<RrType>(99), RawRdata{{0x11, 0x22, 0x33}}},
      {static_cast<RrType>(99), RawRdata{}},
  };
  for (const auto& [type, rdata] : cases) {
    const std::string text = RdataToString(rdata);
    SCOPED_TRACE(text);
    std::string error;
    // Names in the text are absolute, so the origin must not matter.
    auto parsed = ParseRdata(type, Tokens(text), *Name::Parse("other"), error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(*parsed, rdata);
  }
}

TEST(RdataTest, ParseRdataRejectsWhatDoesNotFit) {
  const Name origin = *Name::Parse("nl");
  const std::pair<RrType, std::vector<std::string>> cases[] = {
      {RrType::kMx, {"65536", "mx"}},               // 16-bit overflow
      {RrType::kDs, {"1", "256", "2", "ab"}},       // 8-bit overflow
      {RrType::kDs, {"1", "8", "2", "abc"}},        // odd hex
      {RrType::kDs, {"1", "8", "2", ""}},           // empty hex
      {RrType::kA, {"192.0.2.1", "192.0.2.2"}},     // a field left over
      {RrType::kSrv, {"1", "2", "3"}},              // a field missing
      {RrType::kTxt, {}},                           // no string
      {RrType::kSoa, {"a", "b", "1", "2", "3", "4", "4294967296"}},
      {RrType::kSoa, {"a", "b", "1d", "2", "3", "4", "5"}},  // serial
      {RrType::kRrsig, {"BOGUS", "8", "2", "1", "2", "3", "4", "nl.", "ab"}},
      {RrType::kNsec, {"b", "A", "TYPE65536"}},
      {static_cast<RrType>(99), {"\\#", "2", "112233"}},  // length mismatch
      {static_cast<RrType>(99), {"1122"}},                  // no "\#"
  };
  for (const auto& [type, fields] : cases) {
    std::string error;
    EXPECT_FALSE(ParseRdata(type, fields, origin, error).has_value())
        << ToString(type) << " " << testing::PrintToString(fields);
    EXPECT_FALSE(error.empty());
  }
  std::string error;
  auto soa = ParseRdata(RrType::kSoa, std::vector<std::string>{
                            "ns1", "@", "7", "2h", "30m", "1w", "1d"},
                        origin, error);
  ASSERT_TRUE(soa.has_value()) << error;
  EXPECT_EQ(*soa, Rdata(SoaRdata{*Name::Parse("ns1.nl"), origin, 7, 7200,
                                 1800, 604800, 86400}));
}

TEST(RdataTest, TypeMnemonicsParseInAnyCaseAndAsTypeCodes) {
  EXPECT_EQ(RrTypeFromString("AAAA"), RrType::kAaaa);
  EXPECT_EQ(RrTypeFromString("dnskey"), RrType::kDnskey);
  EXPECT_EQ(RrTypeFromString("TYPE28"), RrType::kAaaa);
  EXPECT_EQ(RrTypeFromString("type999"), static_cast<RrType>(999));
  for (const char* bad : {"", "AAAAA", "TYPE", "TYPE-1", "TYPE1x",
                          "TYPE65536", "IN"}) {
    EXPECT_FALSE(RrTypeFromString(bad).has_value()) << bad;
  }
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
