#include "zone/master_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

constexpr const char* kSimpleZone = R"($ORIGIN example.nl.
$TTL 3600
@  IN SOA ns1 hostmaster 2020040500 7200 3600 1209600 600
   IN NS  ns1
   IN NS  ns2.other-dns.example.
ns1        IN A    192.0.2.53
ns1        IN AAAA 2001:db8::53
www   300  IN A    192.0.2.80
mail       IN MX   10 mail
mail       IN A    192.0.2.25
txt        IN TXT  "v=spf1 -all" "second"
_sip._tcp  IN SRV  10 20 5060 sip
)";

TEST(MasterFileTest, ParsesSimpleZone) {
  auto parsed = ParseMasterFile(kSimpleZone, dns::Name{});
  for (const auto& error : parsed.errors) {
    ADD_FAILURE() << "line " << error.line << ": " << error.message;
  }
  ASSERT_TRUE(parsed.zone.has_value());
  const Zone& zone = *parsed.zone;
  EXPECT_EQ(zone.apex(), N("example.nl"));

  auto soa = zone.Find(N("example.nl"), dns::RrType::kSoa);
  ASSERT_FALSE(soa.empty());
  const auto& soa_rdata = std::get<dns::SoaRdata>(soa.front().rdata);
  EXPECT_EQ(soa_rdata.mname, N("ns1.example.nl"));
  EXPECT_EQ(soa_rdata.serial, 2020040500u);
  EXPECT_EQ(soa_rdata.minimum, 600u);

  auto ns = zone.Find(N("example.nl"), dns::RrType::kNs);
  ASSERT_FALSE(ns.empty());
  EXPECT_EQ(ns.size(), 2u);
  // Absolute names stay absolute.
  EXPECT_EQ(std::get<dns::NsRdata>(ns[1].rdata).nameserver,
            N("ns2.other-dns.example"));

  auto www = zone.Find(N("www.example.nl"), dns::RrType::kA);
  ASSERT_FALSE(www.empty());
  EXPECT_EQ(www.front().ttl, 300u);  // explicit TTL beats $TTL
  EXPECT_EQ(std::get<dns::ARdata>(www.front().rdata).address.ToString(),
            "192.0.2.80");

  auto aaaa = zone.Find(N("ns1.example.nl"), dns::RrType::kAaaa);
  ASSERT_FALSE(aaaa.empty());
  EXPECT_EQ(aaaa.front().ttl, 3600u);  // inherited $TTL

  auto txt = zone.Find(N("txt.example.nl"), dns::RrType::kTxt);
  ASSERT_FALSE(txt.empty());
  EXPECT_EQ(std::get<dns::TxtRdata>(txt.front().rdata).strings,
            (std::vector<std::string>{"v=spf1 -all", "second"}));

  auto srv = zone.Find(N("_sip._tcp.example.nl"), dns::RrType::kSrv);
  ASSERT_FALSE(srv.empty());
  EXPECT_EQ(std::get<dns::SrvRdata>(srv.front().rdata).port, 5060);
}

TEST(MasterFileTest, MultiLineSoaWithParenthesesAndComments) {
  const char* text = R"(
$ORIGIN nz.
@ IN SOA ns1.dns.nz. hostmaster.dns.nz. ( ; comment here
      2020041100 ; serial
      2h         ; refresh, with unit suffix
      30m        ; retry
      2w         ; expire
      10m )      ; minimum
@ IN NS ns1.dns.nz.
)";
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_TRUE(parsed.errors.empty()) << parsed.errors.front().message;
  ASSERT_TRUE(parsed.zone.has_value());
  const auto soa = parsed.zone->Find(N("nz"), dns::RrType::kSoa);
  ASSERT_FALSE(soa.empty());
  const auto& rdata = std::get<dns::SoaRdata>(soa.front().rdata);
  EXPECT_EQ(rdata.refresh, 7200u);
  EXPECT_EQ(rdata.retry, 1800u);
  EXPECT_EQ(rdata.expire, 1209600u);
  EXPECT_EQ(rdata.minimum, 600u);
}

TEST(MasterFileTest, OwnerInheritance) {
  const char* text =
      "$ORIGIN x.\n"
      "@ IN SOA ns1 h 1 2 3 4 5\n"
      "a IN A 192.0.2.1\n"
      "  IN AAAA 2001:db8::1\n";
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_TRUE(parsed.zone.has_value());
  EXPECT_FALSE(parsed.zone->Find(N("a.x"), dns::RrType::kAaaa).empty());
}

TEST(MasterFileTest, DsAndDnskeyHexFields) {
  const char* text =
      "$ORIGIN t.\n"
      "@ IN SOA ns1 h 1 2 3 4 5\n"
      "child IN DS 12345 8 2 deadBEEF\n"
      "@ IN DNSKEY 257 3 8 0102030405\n";
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_TRUE(parsed.errors.empty()) << parsed.errors.front().message;
  const auto ds = parsed.zone->Find(N("child.t"), dns::RrType::kDs);
  ASSERT_FALSE(ds.empty());
  const auto& rdata = std::get<dns::DsRdata>(ds.front().rdata);
  EXPECT_EQ(rdata.key_tag, 12345);
  EXPECT_EQ(rdata.digest, (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
  const auto key = parsed.zone->Find(N("t"), dns::RrType::kDnskey);
  ASSERT_FALSE(key.empty());
  EXPECT_EQ(std::get<dns::DnskeyRdata>(key.front().rdata).flags, 257);
}

TEST(MasterFileTest, ErrorsCarryLineNumbers) {
  const char* text =
      "$ORIGIN e.\n"
      "@ IN SOA ns1 h 1 2 3 4 5\n"
      "bad IN A not-an-address\n"
      "worse IN MX ten mail\n";
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_EQ(parsed.errors.size(), 2u);
  EXPECT_EQ(parsed.errors[0].line, 3u);
  EXPECT_EQ(parsed.errors[1].line, 4u);
  // Non-fatal: the zone still parses with the good records.
  ASSERT_TRUE(parsed.zone.has_value());
}

TEST(MasterFileTest, MissingSoaIsFatal) {
  auto parsed = ParseMasterFile("$ORIGIN q.\nwww IN A 192.0.2.1\n",
                                dns::Name{});
  EXPECT_FALSE(parsed.zone.has_value());
  ASSERT_FALSE(parsed.errors.empty());
  EXPECT_NE(parsed.errors.back().message.find("SOA"), std::string::npos);
}

TEST(MasterFileTest, DuplicateSoaRejected) {
  const char* text =
      "$ORIGIN d.\n"
      "@ IN SOA ns1 h 1 2 3 4 5\n"
      "@ IN SOA ns2 h 2 2 3 4 5\n";
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_FALSE(parsed.errors.empty());
  EXPECT_NE(parsed.errors.front().message.find("duplicate"),
            std::string::npos);
}

TEST(MasterFileTest, OutOfZoneRecordIsFatal) {
  const char* text =
      "$ORIGIN z.\n"
      "@ IN SOA ns1 h 1 2 3 4 5\n"
      "www.other. IN A 192.0.2.1\n";
  auto parsed = ParseMasterFile(text, dns::Name{});
  EXPECT_FALSE(parsed.zone.has_value());
}

TEST(MasterFileTest, UnbalancedParenthesesReported) {
  auto parsed = ParseMasterFile(
      "$ORIGIN p.\n@ IN SOA ns1 h ( 1 2 3 4 5\n", dns::Name{});
  bool found = false;
  for (const auto& error : parsed.errors) {
    found |= error.message.find("unbalanced") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(MasterFileTest, SerializeParseRoundTrip) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"),
       {*net::IpAddress::Parse("194.0.28.1"),
        *net::IpAddress::Parse("2001:678:2c::1")}}};
  Zone original = MakeZoneSkeleton(config);
  PopulateDelegations(original, 25, "dom", 0.5, net::Ipv4Address(100, 70, 0, 0));
  original.Freeze();

  std::string text = ToMasterFile(original);
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_TRUE(parsed.errors.empty())
      << parsed.errors.front().line << ": " << parsed.errors.front().message;
  ASSERT_TRUE(parsed.zone.has_value());

  EXPECT_EQ(parsed.zone->apex(), original.apex());
  EXPECT_EQ(parsed.zone->name_count(), original.name_count());
  EXPECT_EQ(parsed.zone->record_count(), original.record_count());
  // Spot-check semantic equality through lookups.
  for (int i : {0, 7, 24}) {
    dns::Name child = N(("dom" + std::to_string(i) + ".nl").c_str());
    auto a = original.Lookup(child, dns::RrType::kNs);
    auto b = parsed.zone->Lookup(child, dns::RrType::kNs);
    EXPECT_EQ(a.status, b.status);
    EXPECT_TRUE(std::ranges::equal(a.records, b.records));
    std::vector<dns::ResourceRecord> glue_a, glue_b;
    original.AppendGlue(a.records, glue_a);
    parsed.zone->AppendGlue(b.records, glue_b);
    EXPECT_EQ(glue_a, glue_b);
  }
}

TEST(MasterFileTest, RoundTripIsFixpoint) {
  auto first = ParseMasterFile(kSimpleZone, dns::Name{});
  ASSERT_TRUE(first.zone.has_value());
  std::string once = ToMasterFile(*first.zone);
  auto second = ParseMasterFile(once, dns::Name{});
  ASSERT_TRUE(second.zone.has_value());
  EXPECT_EQ(ToMasterFile(*second.zone), once);
}

}  // namespace
}  // namespace clouddns::zone
