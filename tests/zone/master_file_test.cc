#include "zone/master_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "zone/dnssec.h"
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

TEST(MasterFileTest, OutOfRangeFieldsAreErrorsNotTruncations) {
  const std::string txt255(255, 'x');
  const std::string text =
      "$ORIGIN e.\n"
      "@ IN SOA ns1 h 1 2 3 4 5\n"
      "@ IN MX 70000 mx\n"
      "mx 4294967295w IN A 192.0.2.2\n"
      "sip IN SRV 65536 0 5060 host\n"
      "sip IN SRV 0 65536 5060 host\n"
      "sip IN SRV 0 0 65536 host\n"
      "child IN DS 65536 8 2 deadbeef\n"
      "child IN DS 1 256 2 deadbeef\n"
      "child IN DS 1 8 256 deadbeef\n"
      "@ IN DNSKEY 65536 3 8 0102\n"
      "@ IN DNSKEY 257 256 8 0102\n"
      "@ IN DNSKEY 257 3 256 0102\n"
      "txt IN TXT \"" + txt255 + "x\"\n"
      "$TTL 4294967296\n"
      "@ IN SOA ns1 h 1 2 3 4 4294967296\n"
      // The largest values that fit still parse.
      "max 4294967295 IN MX 65535 mx\n"
      "max IN TXT \"" + txt255 + "\"\n";
  auto parsed = ParseMasterFile(text, dns::Name{});
  ASSERT_EQ(parsed.errors.size(), 14u);
  for (std::size_t i = 0; i < parsed.errors.size(); ++i) {
    EXPECT_EQ(parsed.errors[i].line, i + 3) << parsed.errors[i].message;
  }
  EXPECT_NE(parsed.errors[0].message.find("16-bit"), std::string::npos);
  EXPECT_NE(parsed.errors[1].message.find("TTL"), std::string::npos);
  EXPECT_NE(parsed.errors[7].message.find("8-bit"), std::string::npos);
  EXPECT_NE(parsed.errors[11].message.find("255"), std::string::npos);
  ASSERT_TRUE(parsed.zone.has_value());
  EXPECT_EQ(parsed.zone->record_count(), 3u);  // the SOA and the two "max"
  const auto mx = parsed.zone->Find(N("max.e"), dns::RrType::kMx);
  ASSERT_EQ(mx.size(), 1u);
  EXPECT_EQ(mx.front().ttl, 4294967295u);
  EXPECT_EQ(std::get<dns::MxRdata>(mx.front().rdata).preference, 65535);
  const auto txt = parsed.zone->Find(N("max.e"), dns::RrType::kTxt);
  ASSERT_EQ(txt.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(txt.front().rdata).strings.front(),
            txt255);
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
    original.ForEachGlue(a.records, [&glue_a](RecordSpan glue) {
      glue_a.insert(glue_a.end(), glue.begin(), glue.end());
    });
    parsed.zone->ForEachGlue(b.records, [&glue_b](RecordSpan glue) {
      glue_b.insert(glue_b.end(), glue.begin(), glue.end());
    });
    EXPECT_EQ(glue_a, glue_b);
  }
}

TEST(MasterFileTest, RootZoneRoundTripsToAnEqualZone) {
  ZoneBuildConfig config;
  config.apex = dns::Name{};
  config.nameservers = {
      {N("a.root-servers.net"),
       {*net::IpAddress::Parse("198.41.0.4"),
        *net::IpAddress::Parse("2001:503:ba3e::2:30")}}};
  Zone original = MakeZoneSkeleton(config);
  AddDelegation(original, N("nl"),
                {{N("ns1.dns.nl"), {*net::IpAddress::Parse("194.0.28.53")}}},
                /*with_ds=*/true);
  PopulateDelegations(original, 4, "tld", 0.5,
                      net::Ipv4Address(100, 70, 0, 0));
  original.Freeze();

  const std::string text = ToMasterFile(original);
  EXPECT_EQ(text.substr(0, text.find('\n', text.find('\n') + 1)),
            "$ORIGIN .\n"
            ". 3600 IN SOA a.root-servers.net. hostmaster. 2020040500 7200 "
            "3600 1209600 600");
  const ParsedZone parsed = ParseMasterFile(text, N("example"));
  for (const auto& error : parsed.errors) {
    ADD_FAILURE() << "line " << error.line << ": " << error.message;
  }
  ASSERT_TRUE(parsed.zone.has_value()) << text;
  EXPECT_EQ(parsed.zone->apex(), original.apex());
  ASSERT_EQ(parsed.zone->Owners().size(), original.Owners().size());
  for (std::size_t i = 0; i < original.Owners().size(); ++i) {
    const Zone::Owner& want = original.Owners()[i];
    const Zone::Owner& got = parsed.zone->Owners()[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_TRUE(std::ranges::equal(got.records, want.records))
        << want.name.ToString();
  }
}

TEST(MasterFileTest, CharacterStringEscapesRoundTrip) {
  ZoneBuildConfig config;
  config.apex = N("t");
  config.nameservers = {{N("ns1.t"), {*net::IpAddress::Parse("192.0.2.1")}}};
  Zone zone = MakeZoneSkeleton(config);
  // A quote, a backslash, a zero byte and a byte past ASCII.
  const std::string tricky("say \"hi\" \\ \0 \xff", 14);
  zone.Add(dns::MakeTxt(N("x.t"), tricky, 60));
  zone.Freeze();

  const std::string text = ToMasterFile(zone);
  EXPECT_NE(text.find(R"(TXT "say \"hi\" \\ \000 \255")"), std::string::npos)
      << text;
  const ParsedZone parsed = ParseMasterFile(text, dns::Name{});
  for (const auto& error : parsed.errors) {
    ADD_FAILURE() << "line " << error.line << ": " << error.message;
  }
  ASSERT_TRUE(parsed.zone.has_value()) << text;
  const auto found = parsed.zone->Lookup(N("x.t"), dns::RrType::kTxt);
  ASSERT_EQ(found.records.size(), 1u);
  EXPECT_EQ(std::get<dns::TxtRdata>(found.records[0].rdata).strings,
            std::vector<std::string>{tricky});
}

TEST(MasterFileTest, RoundTripIsFixpoint) {
  auto first = ParseMasterFile(kSimpleZone, dns::Name{});
  ASSERT_TRUE(first.zone.has_value());
  std::string once = ToMasterFile(*first.zone);
  auto second = ParseMasterFile(once, dns::Name{});
  ASSERT_TRUE(second.zone.has_value());
  EXPECT_EQ(ToMasterFile(*second.zone), once);
}

/// Applies one seeded edit to `text`: a byte flip (half the time to a
/// byte the grammar gives a meaning), a truncation, or a copy of one
/// whitespace-delimited token inserted at another token boundary.
void Mutate(std::string& text, std::mt19937_64& rng) {
  static constexpr std::string_view kSyntax = " \t\n;()\"$@.0123456789INSOAwd";
  if (text.empty()) return;
  switch (rng() % 3) {
    case 0:
      text[rng() % text.size()] =
          rng() % 2 == 0 ? kSyntax[rng() % kSyntax.size()]
                         : static_cast<char>(rng());
      break;
    case 1:
      text.resize(rng() % text.size());
      break;
    default: {
      const auto token_at = [&text](std::size_t pos) {
        const std::size_t begin = text.find_last_of(" \n", pos);
        const std::size_t first = begin == std::string::npos ? 0 : begin + 1;
        const std::size_t end = text.find_first_of(" \n", first);
        return std::pair{first,
                         (end == std::string::npos ? text.size() : end) - first};
      };
      const auto [first, size] = token_at(rng() % text.size());
      const std::string token = " " + text.substr(first, size);
      const auto [at, at_size] = token_at(rng() % text.size());
      text.insert(at + at_size, token);
      break;
    }
  }
}

TEST(MasterFileTest, MutatedInputNeverThrowsAndRerendersToAFixedPoint) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"),
       {*net::IpAddress::Parse("194.0.28.1"),
        *net::IpAddress::Parse("2001:678:2c::1")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, 6, "dom", 0.5, net::Ipv4Address(100, 70, 0, 0));
  zone.Add(dns::MakeMx(N("nl"), 10, N("mx.dns.nl"), 300));
  zone.Add(dns::MakeTxt(N("txt.nl"), "v=spf1 -all", 300));
  zone.Add(dns::ResourceRecord{
      N("_sip._tcp.nl"), dns::RrType::kSrv, dns::RrClass::kIn, 300,
      dns::SrvRdata{10, 20, 5060, N("sip.dns.nl")}});
  zone.Add(dns::ResourceRecord{N("www.nl"), dns::RrType::kCname,
                               dns::RrClass::kIn, 300,
                               dns::CnameRdata{N("txt.nl")}});
  SignZone(zone);  // DNSKEY and DS records, with long hex fields
  const std::string base = ToMasterFile(zone);

  std::mt19937_64 rng(1035);
  std::size_t zones = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string text = base;
    for (std::uint64_t edits = 1 + rng() % 3; edits > 0; --edits) {
      Mutate(text, rng);
    }
    SCOPED_TRACE("case " + std::to_string(i));
    ParsedZone first;
    ASSERT_NO_THROW(first = ParseMasterFile(text, dns::Name{}));
    if (!first.zone) continue;
    ++zones;
    const std::string once = ToMasterFile(*first.zone);
    ParsedZone second;
    ASSERT_NO_THROW(second = ParseMasterFile(once, dns::Name{}));
    ASSERT_TRUE(second.zone.has_value()) << once;
    EXPECT_TRUE(second.errors.empty())
        << second.errors.front().line << ": " << second.errors.front().message;
    ASSERT_EQ(ToMasterFile(*second.zone), once) << text;
  }
  EXPECT_GT(zones, 2500u);  // most edits leave a zone to re-render
}

}  // namespace
}  // namespace clouddns::zone
