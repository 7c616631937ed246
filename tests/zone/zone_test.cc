#include "zone/zone.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

Zone MakeNlZone() {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}},
      {N("ns2.dns.nl"), {*net::IpAddress::Parse("192.0.2.54")}},
  };
  Zone zone = MakeZoneSkeleton(config);
  AddDelegation(zone, N("example.nl"),
                {{N("ns1.example.nl"), {*net::IpAddress::Parse("198.51.100.1")}},
                 {N("ns2.example.nl"), {*net::IpAddress::Parse("198.51.100.2")}}},
                /*with_ds=*/true);
  AddDelegation(zone, N("unsigned.nl"),
                {{N("ns1.unsigned.nl"), {*net::IpAddress::Parse("198.51.100.9")}}},
                /*with_ds=*/false);
  zone.Freeze();
  return zone;
}

std::vector<dns::ResourceRecord> GlueOf(const Zone& zone,
                                        const LookupResult& referral) {
  std::vector<dns::ResourceRecord> glue;
  zone.ForEachGlue(referral.records, [&glue](RecordSpan records) {
    glue.insert(glue.end(), records.begin(), records.end());
  });
  return glue;
}

TEST(ZoneTest, RejectsOutOfZoneRecords) {
  Zone zone(N("nl"));
  EXPECT_THROW(zone.Add(dns::MakeA(N("example.nz"),
                                   net::Ipv4Address(1, 2, 3, 4), 60)),
               std::invalid_argument);
}

TEST(ZoneTest, RejectsRrsigRecords) {
  // A signed zone's RRSIGs are written on demand, so a stored one would
  // be served twice.
  Zone zone(N("nl"));
  dns::RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(dns::RrType::kA);
  sig.signer = N("nl");
  EXPECT_THROW(zone.Add(dns::ResourceRecord{N("www.nl"), dns::RrType::kRrsig,
                                            dns::RrClass::kIn, 60, sig}),
               std::invalid_argument);
  EXPECT_EQ(zone.record_count(), 0u);
}

TEST(ZoneTest, ApexSoaAndNsAnswer) {
  Zone zone = MakeNlZone();
  auto soa = zone.Lookup(N("nl"), dns::RrType::kSoa);
  EXPECT_EQ(soa.status, LookupStatus::kAnswer);
  ASSERT_EQ(soa.records.size(), 1u);

  auto ns = zone.Lookup(N("nl"), dns::RrType::kNs);
  EXPECT_EQ(ns.status, LookupStatus::kAnswer);
  EXPECT_EQ(ns.records.size(), 2u);
}

TEST(ZoneTest, DelegationReturnsReferralWithGlue) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("www.example.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(result.records.front().name, N("example.nl"));  // the cut
  EXPECT_EQ(result.records.size(), 2u);          // the NS set
  EXPECT_EQ(GlueOf(zone, result).size(), 2u);    // in-zone glue A records
  EXPECT_EQ(result.ds.size(), 1u);       // signed child
}

TEST(ZoneTest, DelegationAtCutItself) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("example.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(result.records.front().name, N("example.nl"));
}

TEST(ZoneTest, DsQueryAtCutIsAnsweredByParent) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("example.nl"), dns::RrType::kDs);
  EXPECT_EQ(result.status, LookupStatus::kAnswer);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, dns::RrType::kDs);
}

TEST(ZoneTest, DsQueryForUnsignedChildIsNoData) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("unsigned.nl"), dns::RrType::kDs);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
  EXPECT_FALSE(result.soa.empty());
}

TEST(ZoneTest, NxDomainForUnregisteredName) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("definitely-not-registered.nl"),
                            dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
  ASSERT_EQ(result.soa.size(), 1u);
  EXPECT_EQ(result.soa[0].type, dns::RrType::kSoa);
}

TEST(ZoneTest, NoDataForExistingNameWrongType) {
  Zone zone = MakeNlZone();
  // ns1.dns.nl exists with an A record but has no MX.
  auto result = zone.Lookup(N("ns1.dns.nl"), dns::RrType::kMx);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST(ZoneTest, EmptyNonTerminalIsNoDataNotNxDomain) {
  Zone zone = MakeNlZone();
  // "dns.nl" exists only as the parent of ns1/ns2.dns.nl.
  auto result = zone.Lookup(N("dns.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST(ZoneTest, NotInZone) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("example.nz"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNotInZone);
}

TEST(ZoneTest, NameBelowDelegationIsReferralNotNxDomain) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("deep.under.example.nl"), dns::RrType::kAaaa);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
}

TEST(ZoneTest, AnyQueryReturnsAllRecords) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("nl"), dns::RrType::kAny);
  EXPECT_EQ(result.status, LookupStatus::kAnswer);
  EXPECT_GE(result.records.size(), 3u);  // SOA + 2 NS at least
}

TEST(ZoneTest, AnyQueryKeepsTypeThenAddOrder) {
  Zone zone = MakeNlZone();
  auto result = zone.Lookup(N("nl"), dns::RrType::kAny);
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].type, dns::RrType::kNs);
  EXPECT_EQ(std::get<dns::NsRdata>(result.records[0].rdata).nameserver,
            N("ns1.dns.nl"));
  EXPECT_EQ(std::get<dns::NsRdata>(result.records[1].rdata).nameserver,
            N("ns2.dns.nl"));
  EXPECT_EQ(result.records[2].type, dns::RrType::kSoa);
}

TEST(ZoneTest, QueriesOnAnUnfrozenZoneThrow) {
  Zone zone(N("nl"));
  zone.Add(dns::MakeA(N("www.nl"), net::Ipv4Address(192, 0, 2, 1), 60));
  EXPECT_THROW((void)zone.Lookup(N("www.nl"), dns::RrType::kA),
               std::logic_error);
  EXPECT_THROW((void)zone.Find(N("www.nl"), dns::RrType::kA),
               std::logic_error);
  EXPECT_THROW((void)zone.DenialNeighbors(N("a.nl")), std::logic_error);
  EXPECT_THROW((void)zone.Owners(), std::logic_error);
  zone.Freeze();
  EXPECT_EQ(zone.Find(N("www.nl"), dns::RrType::kA).size(), 1u);
}

TEST(ZoneTest, EditsOfAFrozenZoneThrow) {
  Zone zone = MakeNlZone();
  const std::size_t records = zone.record_count();
  EXPECT_THROW(zone.Add(dns::MakeA(N("ccc.nl"),
                                   net::Ipv4Address(198, 51, 100, 77), 60)),
               std::logic_error);
  EXPECT_THROW(zone.Reserve(1), std::logic_error);
  EXPECT_EQ(zone.record_count(), records);
  // The image stays queryable, and Freeze stays a no-op.
  zone.Freeze();
  EXPECT_EQ(zone.record_count(), records);
  EXPECT_EQ(zone.Lookup(N("ccc.nl"), dns::RrType::kA).status,
            LookupStatus::kNxDomain);
}

TEST(ZoneTest, AddInPlaceChecksAsAddDoes) {
  Zone zone(N("nl"));
  const auto fill_with = [](dns::ResourceRecord bad) {
    return [bad](std::span<dns::ResourceRecord> slots) {
      slots[0] = dns::MakeA(N("www.nl"), net::Ipv4Address(192, 0, 2, 1), 60);
      slots[1] = bad;
    };
  };
  // A record outside the zone, or an RRSIG, cuts the log back.
  EXPECT_THROW(zone.AddInPlace(2, fill_with(dns::MakeA(
                                      N("www.example"),
                                      net::Ipv4Address(192, 0, 2, 2), 60))),
               std::invalid_argument);
  dns::RrsigRdata sig;
  sig.signer = N("nl");
  EXPECT_THROW(
      zone.AddInPlace(2, fill_with(dns::ResourceRecord{
                             N("www.nl"), dns::RrType::kRrsig,
                             dns::RrClass::kIn, 60, sig})),
      std::invalid_argument);
  EXPECT_EQ(zone.record_count(), 0u);
  // A throwing fill cuts it back too.
  EXPECT_THROW(zone.AddInPlace(1,
                               [](std::span<dns::ResourceRecord>) {
                                 throw std::runtime_error("fill failed");
                               }),
               std::runtime_error);
  EXPECT_EQ(zone.record_count(), 0u);

  // An apex DNSKEY added in place signs the zone, as Add's would.
  auto keys = MakeApexDnskeys(N("nl"), 3600);
  zone.AddInPlace(keys.size(), [&keys](std::span<dns::ResourceRecord> slots) {
    for (std::size_t k = 0; k < keys.size(); ++k) slots[k] = keys[k];
  });
  zone.Freeze();
  EXPECT_TRUE(zone.IsSigned());
  EXPECT_EQ(zone.Find(N("nl"), dns::RrType::kDnskey).size(), keys.size());
  EXPECT_THROW(zone.AddInPlace(0, [](std::span<dns::ResourceRecord>) {}),
               std::logic_error);
}

TEST(ZoneTest, EmptyNonTerminalsAreOwnersWithoutRecords) {
  Zone zone = MakeNlZone();
  // Owners: nl, dns.nl (an ENT), ns1/ns2.dns.nl, example.nl with its
  // ns1/ns2 glue, unsigned.nl with its ns1 glue.
  std::size_t empty = 0;
  for (const Zone::Owner& owner : zone.Owners()) {
    if (owner.records.empty()) {
      EXPECT_EQ(owner.name, N("dns.nl"));
      ++empty;
    }
  }
  EXPECT_EQ(empty, 1u);
  EXPECT_EQ(zone.Owners().size(), 9u);
  EXPECT_EQ(zone.name_count(), 8u);
}

TEST(ZoneTest, MoveCarriesTheFrozenImage) {
  // Owner spans point into the slab; moving the zone must keep them valid.
  Zone source = MakeNlZone();
  const std::size_t names = source.name_count();
  const std::size_t records = source.record_count();
  const dns::Name next = source.DenialNeighbors(N("bbb.nl")).next;

  Zone moved(std::move(source));
  EXPECT_EQ(moved.name_count(), names);
  EXPECT_EQ(moved.record_count(), records);
  EXPECT_EQ(moved.DenialNeighbors(N("bbb.nl")).next, next);

  Zone assigned(N("nl"));
  assigned = std::move(moved);
  EXPECT_EQ(assigned.name_count(), names);
  EXPECT_EQ(assigned.Lookup(N("nl"), dns::RrType::kSoa).status,
            LookupStatus::kAnswer);
}

TEST(ZoneTest, RootZoneDelegatesTlds) {
  ZoneBuildConfig config;
  config.apex = dns::Name{};
  config.nameservers = {
      {N("b.root-servers.net"), {*net::IpAddress::Parse("199.9.14.201")}}};
  Zone root = MakeZoneSkeleton(config);
  AddDelegation(root, N("nl"),
                {{N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}},
                true);
  root.Freeze();

  auto result = root.Lookup(N("www.example.nl"), dns::RrType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(result.records.front().name, N("nl"));

  auto junk = root.Lookup(N("hjkdfs"), dns::RrType::kA);
  EXPECT_EQ(junk.status, LookupStatus::kNxDomain);
}

TEST(ZoneBuilderTest, PopulateDelegationsCounts) {
  ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("192.0.2.60")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, 100, "dom", 0.5, net::Ipv4Address(10, 50, 0, 0));
  zone.Freeze();

  // Every domain is a delegation with 2-4 NS records plus glue; all have
  // IPv4 glue and most carry AAAA glue too.
  int ds_count = 0;
  int aaaa_glue = 0;
  for (std::size_t i = 0; i < 100; ++i) {
    dns::Name child = N(("dom" + std::to_string(i) + ".nz").c_str());
    auto result = zone.Lookup(child.Child("www"), dns::RrType::kA);
    ASSERT_EQ(result.status, LookupStatus::kDelegation) << i;
    EXPECT_GE(result.records.size(), 2u);
    EXPECT_LE(result.records.size(), 4u);
    const auto glue = GlueOf(zone, result);
    EXPECT_GE(glue.size(), result.records.size());
    for (const auto& rr : glue) {
      aaaa_glue += rr.type == dns::RrType::kAaaa;
    }
    ds_count += static_cast<int>(result.ds.size());
  }
  EXPECT_EQ(ds_count, 50);  // exactly the configured signed fraction
  EXPECT_GT(aaaa_glue, 100);  // ~80% of domains ship AAAA glue
}

TEST(ZoneBuilderTest, PopulateDelegationsRejectsAnOverlongStemUpFront) {
  // "<stem>99" is 64 bytes, one past a label's limit: the check throws
  // before the pool fills anything, and the zone keeps its records.
  Zone zone = MakeZoneSkeleton({N("nl"), {}, 600});
  const std::size_t before = zone.record_count();
  EXPECT_THROW(PopulateDelegations(zone, 100, std::string(62, 'd'), 0.5,
                                   net::Ipv4Address(10, 50, 0, 0)),
               std::invalid_argument);
  EXPECT_EQ(zone.record_count(), before);
  PopulateDelegations(zone, 10, std::string(62, 'd'), 0.5,
                      net::Ipv4Address(10, 50, 0, 0));
  zone.Freeze();
  EXPECT_EQ(zone.Lookup(N((std::string(62, 'd') + "9.nl").c_str()),
                        dns::RrType::kA)
                .status,
            LookupStatus::kDelegation);
}

}  // namespace
}  // namespace clouddns::zone
