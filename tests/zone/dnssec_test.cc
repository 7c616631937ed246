#include "zone/dnssec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

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
  EXPECT_EQ(ds.key_tag, KskTagFor(N("example.nl")));
  EXPECT_NE(ds.key_tag, KskTagFor(N("other.nl")));
}

TEST(DnssecTest, SignZoneAttachesRrsigsToEveryRrset) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}};
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

TEST(DnssecTest, SigningASignedZoneThrows) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}};
  Zone zone = MakeZoneSkeleton(config);
  SignZone(zone);
  const std::size_t signed_count = zone.record_count();
  EXPECT_THROW(SignZone(zone), std::logic_error);
  EXPECT_EQ(zone.record_count(), signed_count);

  // An apex DNSKEY added by hand counts too, frozen or not.
  Zone keyed = MakeZoneSkeleton(config);
  keyed.Add(MakeApexDnskeys(N("nl"), 3600).front());
  const std::size_t keyed_count = keyed.record_count();
  EXPECT_THROW(SignZone(keyed), std::logic_error);
  EXPECT_EQ(keyed.record_count(), keyed_count);

  // A frozen zone is final, so it cannot be signed after the fact.
  Zone frozen = MakeZoneSkeleton(config);
  frozen.Freeze();
  const std::size_t frozen_count = frozen.record_count();
  EXPECT_THROW(SignZone(frozen), std::logic_error);
  EXPECT_EQ(frozen.record_count(), frozen_count);
  EXPECT_FALSE(frozen.IsSigned());
  EXPECT_TRUE(frozen.Find(N("nl"), dns::RrType::kRrsig).empty());
}

/// The RRSIG SignZone gives `target`'s RRset, built from the public
/// signing primitives.
dns::ResourceRecord ReferenceRrsig(const dns::Name& apex,
                                   const dns::ResourceRecord& target) {
  dns::RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(target.type);
  sig.algorithm = kMockAlgorithm;
  sig.labels = static_cast<std::uint8_t>(target.name.LabelCount());
  sig.original_ttl = target.ttl;
  sig.expiration = kMockExpiration;
  sig.inception = kMockInception;
  sig.key_tag = target.type == dns::RrType::kDnskey ? KskTagFor(apex)
                                                    : ZskTagFor(apex);
  sig.signer = apex;
  sig.signature = MockSignature(apex, target.name, target.type);
  return dns::ResourceRecord{target.name, dns::RrType::kRrsig,
                             dns::RrClass::kIn, target.ttl, std::move(sig)};
}

TEST(DnssecTest, SignZoneMatchesOneFreezeOfAddsAndRrsigs) {
  const auto build = [] {
    ZoneBuildConfig config;
    config.apex = N("nl");
    config.nameservers = {
        {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}},
        {N("NS2.Dns.nl"), {*net::IpAddress::Parse("192.0.2.54")}}};
    Zone zone = MakeZoneSkeleton(config);
    // Glue-only owners under cuts, one child with a DS.
    AddDelegation(zone, N("example.nl"),
                  {{N("ns1.example.nl"),
                    {*net::IpAddress::Parse("198.51.100.1")}},
                   {N("NS2.EXAMPLE.nl"),
                    {*net::IpAddress::Parse("198.51.100.2")}}},
                  /*with_ds=*/true);
    AddDelegation(zone, N("Unsigned.nl"),
                  {{N("ns1.unsigned.nl"),
                    {*net::IpAddress::Parse("198.51.100.9")}}},
                  /*with_ds=*/false);
    // ENTs: deep.nl and under.deep.nl hold no records.
    zone.Add(dns::MakeA(N("host.under.deep.nl"),
                        net::Ipv4Address(192, 0, 2, 7), 60));
    // One owner, two spellings of it, types on both sides of RRSIG, and
    // an RRSIG added by hand before signing.
    zone.Add(dns::MakeTxt(N("www.nl"), "text", 300));
    zone.Add(dns::MakeA(N("WWW.nl"), net::Ipv4Address(192, 0, 2, 1), 60));
    zone.Add(dns::MakeA(N("www.NL"), net::Ipv4Address(192, 0, 2, 2), 60));
    dns::NsecRdata nsec;
    nsec.next = N("zzz.nl");
    nsec.types = {dns::RrType::kA, dns::RrType::kTxt};
    zone.Add(dns::ResourceRecord{N("www.nl"), dns::RrType::kNsec,
                                 dns::RrClass::kIn, 600, std::move(nsec)});
    dns::ResourceRecord manual =
        ReferenceRrsig(N("nl"), dns::MakeTxt(N("www.nl"), "text", 300));
    std::get<dns::RrsigRdata>(manual.rdata).signature = {1, 2, 3};
    zone.Add(std::move(manual));
    zone.Add(dns::MakeTxt(N("zzz.nl"), "last", 60));
    return zone;
  };

  const auto build_keyed = [&build] {
    Zone zone = build();
    for (auto& key : MakeApexDnskeys(zone.apex(), 172800)) {
      zone.Add(std::move(key));
    }
    return zone;
  };

  // A frozen copy only lists the RRSIG targets in canonical order; the
  // reference is the same Add sequence plus those RRSIGs, frozen once.
  Zone listing = build_keyed();
  listing.Freeze();
  std::vector<dns::ResourceRecord> targets;
  for (const Zone::Owner& owner : listing.Owners()) {
    for (std::size_t i = 0; i < owner.records.size(); ++i) {
      const dns::ResourceRecord& rr = owner.records[i];
      if (rr.type == dns::RrType::kRrsig) continue;
      if (i == 0 || owner.records[i - 1].type != rr.type) {
        targets.push_back(rr);
      }
    }
  }
  Zone reference = build_keyed();
  for (const auto& target : targets) {
    reference.Add(ReferenceRrsig(reference.apex(), target));
  }
  reference.Freeze();

  Zone zone = build();
  SignZone(zone);

  EXPECT_EQ(zone.record_count(), reference.record_count());
  EXPECT_EQ(zone.name_count(), reference.name_count());
  const auto got = zone.Owners();
  const auto want = reference.Owners();
  ASSERT_EQ(got.size(), want.size());
  std::size_t ents = 0;
  for (std::size_t o = 0; o < got.size(); ++o) {
    SCOPED_TRACE(want[o].name.ToString());
    EXPECT_EQ(got[o].name.ToString(), want[o].name.ToString());
    if (want[o].records.empty()) ++ents;
    ASSERT_EQ(got[o].records.size(), want[o].records.size());
    for (std::size_t i = 0; i < got[o].records.size(); ++i) {
      EXPECT_EQ(got[o].records[i], want[o].records[i]) << i;
      EXPECT_EQ(got[o].records[i].ToString(), want[o].records[i].ToString())
          << i;
    }
  }
  EXPECT_EQ(ents, 3u);  // dns.nl, deep.nl, under.deep.nl
  // The apex's RRSIGs sit between its NS/SOA and its DNSKEYs, and the
  // hand-added RRSIG at www.nl comes before the signer's.
  const RecordSpan apex = got.front().records;
  EXPECT_EQ(apex.back().type, dns::RrType::kDnskey);
  const RecordSpan www = zone.Find(N("www.nl"), dns::RrType::kRrsig);
  ASSERT_EQ(www.size(), 4u);  // manual, then A, TXT, NSEC
  EXPECT_EQ(std::get<dns::RrsigRdata>(www.front().rdata).signature,
            (std::vector<std::uint8_t>{1, 2, 3}));
}

}  // namespace
}  // namespace clouddns::zone
