#include "zone/dnssec.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "../testutil.h"
#include "server/auth_server.h"
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

/// Serves `zone` and asks it for `qtype` at `qname` with DO=1.
dns::Message AskWithDo(std::shared_ptr<const Zone> zone, const char* qname,
                       dns::RrType qtype) {
  server::AuthServer server(server::AuthServerConfig{});
  server.Serve(std::move(zone));
  return testutil::AskOverTcp(
      server, dns::Message::MakeQuery(1, N(qname), qtype,
                                      dns::EdnsInfo{4096, true, 0}));
}

TEST(DnssecTest, SignZoneAttachesRrsigsToEveryRrset) {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}};
  Zone image = MakeZoneSkeleton(config);
  const std::size_t unsigned_count = image.record_count();
  SignZone(image);
  const auto zone = std::make_shared<const Zone>(std::move(image));
  EXPECT_TRUE(zone->IsSigned());
  // The image gains the apex DNSKEYs and stores no RRSIG.
  EXPECT_EQ(zone->record_count(), unsigned_count + 2);
  EXPECT_TRUE(zone->Find(N("nl"), dns::RrType::kRrsig).empty());

  // SOA, NS, the glue A, and DNSKEY itself are all served with the RRSIG
  // over their RRset.
  const struct {
    const char* qname;
    dns::RrType qtype;
  } cases[] = {{"nl", dns::RrType::kSoa},
               {"nl", dns::RrType::kNs},
               {"nl", dns::RrType::kDnskey},
               {"ns1.dns.nl", dns::RrType::kA}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.qname) + " " +
                 std::string(dns::ToString(c.qtype)));
    const RecordSpan rrset = zone->Find(N(c.qname), c.qtype);
    ASSERT_FALSE(rrset.empty());
    const dns::Message response = AskWithDo(zone, c.qname, c.qtype);
    ASSERT_EQ(response.answers.size(), rrset.size() + 1);
    for (std::size_t i = 0; i < rrset.size(); ++i) {
      EXPECT_EQ(response.answers[i], rrset[i]);
    }
    EXPECT_EQ(response.answers.back(),
              testutil::ReferenceRrsig(zone->apex(), rrset.front()));
  }
}

TEST(DnssecTest, DnskeySigKeyTagIsKskOthersZsk) {
  ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("192.0.2.60")}}};
  Zone image = MakeZoneSkeleton(config);
  SignZone(image);
  const auto zone = std::make_shared<const Zone>(std::move(image));
  for (dns::RrType qtype :
       {dns::RrType::kSoa, dns::RrType::kNs, dns::RrType::kDnskey}) {
    SCOPED_TRACE(std::string(dns::ToString(qtype)));
    const dns::Message response = AskWithDo(zone, "nz", qtype);
    ASSERT_FALSE(response.answers.empty());
    const dns::ResourceRecord& rr = response.answers.back();
    ASSERT_EQ(rr.type, dns::RrType::kRrsig);
    const auto& sig = std::get<dns::RrsigRdata>(rr.rdata);
    EXPECT_EQ(static_cast<dns::RrType>(sig.type_covered), qtype);
    EXPECT_EQ(sig.key_tag, qtype == dns::RrType::kDnskey ? KskTagFor(N("nz"))
                                                         : ZskTagFor(N("nz")));
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

}  // namespace
}  // namespace clouddns::zone
