#include "zone/dnssec.h"

#include <gtest/gtest.h>

#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

TEST(DnssecTest, KeyTagsAreDeterministicAndZoneSpecific) {
  EXPECT_EQ(ZskTagFor(N("nl")), ZskTagFor(N("NL")));
  EXPECT_NE(ZskTagFor(N("nl")), ZskTagFor(N("nz")));
  EXPECT_NE(ZskTagFor(N("nl")), KskTagFor(N("nl")));
}

TEST(DnssecTest, ApexDnskeysHaveKskAndZsk) {
  auto keys = MakeApexDnskeys(N("nl"), 3600);
  ASSERT_EQ(keys.size(), 2u);
  const auto& ksk = std::get<dns::DnskeyRdata>(keys[0].rdata);
  const auto& zsk = std::get<dns::DnskeyRdata>(keys[1].rdata);
  EXPECT_EQ(ksk.flags, 257);
  EXPECT_EQ(zsk.flags, 256);
  EXPECT_EQ(ksk.algorithm, kMockAlgorithm);
  // RSA-2048-sized material, so DNSKEY responses truncate at EDNS 512.
  EXPECT_EQ(ksk.public_key.size(), 256u);
}

TEST(DnssecTest, DsMatchesChildKsk) {
  auto ds_record = MakeDs(N("example.nl"), 3600);
  const auto& ds = std::get<dns::DsRdata>(ds_record.rdata);
  EXPECT_TRUE(VerifyDsMatchesKey(ds, N("example.nl")));
  EXPECT_FALSE(VerifyDsMatchesKey(ds, N("other.nl")));
}

TEST(DnssecTest, SignZoneAttachesRrsigsToEveryRrset) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}};
  config.sign = false;
  Zone zone = MakeZoneSkeleton(config);
  SignZone(zone);

  EXPECT_TRUE(zone.IsSigned());
  // SOA, NS, the glue A, and DNSKEY itself must all carry signatures.
  const RecordSpan soa_sigs = zone.Find(N("nl"), dns::RrType::kRrsig);
  ASSERT_FALSE(soa_sigs.empty());
  bool covers_soa = false, covers_ns = false, covers_dnskey = false;
  for (const auto& rr : soa_sigs) {
    auto covered = static_cast<dns::RrType>(
        std::get<dns::RrsigRdata>(rr.rdata).type_covered);
    covers_soa |= covered == dns::RrType::kSoa;
    covers_ns |= covered == dns::RrType::kNs;
    covers_dnskey |= covered == dns::RrType::kDnskey;
  }
  EXPECT_TRUE(covers_soa);
  EXPECT_TRUE(covers_ns);
  EXPECT_TRUE(covers_dnskey);
  EXPECT_FALSE(zone.Find(N("ns1.dns.nl"), dns::RrType::kRrsig).empty());
}

TEST(DnssecTest, RrsigVerifiesOnlyMatchingIdentity) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}};
  Zone zone = MakeZoneSkeleton(config);
  SignZone(zone);

  const RecordSpan sigs = zone.Find(N("nl"), dns::RrType::kRrsig);
  ASSERT_FALSE(sigs.empty());
  for (const auto& rr : sigs) {
    const auto& sig = std::get<dns::RrsigRdata>(rr.rdata);
    auto covered = static_cast<dns::RrType>(sig.type_covered);
    EXPECT_TRUE(VerifyRrsig(sig, N("nl"), covered));
    EXPECT_FALSE(VerifyRrsig(sig, N("nz"), covered));
  }
}

TEST(DnssecTest, DnskeySigKeyTagIsKskOthersZsk) {
  ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("192.0.2.60")}}};
  Zone zone = MakeZoneSkeleton(config);
  SignZone(zone);

  const RecordSpan sigs = zone.Find(N("nz"), dns::RrType::kRrsig);
  ASSERT_FALSE(sigs.empty());
  for (const auto& rr : sigs) {
    const auto& sig = std::get<dns::RrsigRdata>(rr.rdata);
    if (static_cast<dns::RrType>(sig.type_covered) == dns::RrType::kDnskey) {
      EXPECT_EQ(sig.key_tag, KskTagFor(N("nz")));
    } else {
      EXPECT_EQ(sig.key_tag, ZskTagFor(N("nz")));
    }
  }
}

}  // namespace
}  // namespace clouddns::zone
