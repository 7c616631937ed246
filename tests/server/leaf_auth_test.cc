#include "server/leaf_auth.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "../testutil.h"

namespace clouddns::server {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

dns::Message Ask(LeafAuthService& leaf, const char* qname, dns::RrType qtype) {
  return testutil::AskOverTcp(leaf,
                              dns::Message::MakeQuery(1, N(qname), qtype));
}

TEST(LeafAuthTest, AnswersADeterministically) {
  LeafAuthService leaf{LeafAuthConfig{}};
  auto first = Ask(leaf, "www.dom5.nl", dns::RrType::kA);
  auto second = Ask(leaf, "www.dom5.nl", dns::RrType::kA);
  ASSERT_EQ(first.answers.size(), 1u);
  EXPECT_EQ(first.answers, second.answers);
  EXPECT_TRUE(first.header.aa);

  auto other = Ask(leaf, "www.dom6.nl", dns::RrType::kA);
  EXPECT_NE(first.answers, other.answers);
}

TEST(LeafAuthTest, AaaaFollowsConfiguredFraction) {
  LeafAuthConfig all_v6;
  all_v6.v6_fraction = 1.0;
  LeafAuthService leaf_all(all_v6);
  EXPECT_EQ(Ask(leaf_all, "a.dom1.nl", dns::RrType::kAaaa).answers.size(), 1u);

  LeafAuthConfig no_v6;
  no_v6.v6_fraction = 0.0;
  LeafAuthService leaf_none(no_v6);
  auto response = Ask(leaf_none, "a.dom1.nl", dns::RrType::kAaaa);
  EXPECT_TRUE(response.answers.empty());
  ASSERT_FALSE(response.authorities.empty());  // NODATA with SOA
  EXPECT_EQ(response.authorities[0].type, dns::RrType::kSoa);
}

TEST(LeafAuthTest, NsQueriesBelowDelegationAreNoData) {
  LeafAuthService leaf{LeafAuthConfig{}};
  auto response = Ask(leaf, "www.dom5.nl", dns::RrType::kNs);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_FALSE(response.authorities.empty());
}

TEST(LeafAuthTest, DnskeyAnswersAreRsaSized) {
  LeafAuthService leaf{LeafAuthConfig{}};
  auto response = Ask(leaf, "dom5.nl", dns::RrType::kDnskey);
  ASSERT_EQ(response.answers.size(), 2u);
  auto wire = response.Encode();
  EXPECT_GT(wire.size(), 512u);  // forces TCP for 512-buffer validators
}

TEST(LeafAuthTest, HandlePacketTruncatesAtEdnsLimit) {
  LeafAuthService leaf{LeafAuthConfig{}};
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.0.0.1"), 33333};
  ctx.transport = dns::Transport::kUdp;
  dns::Message query = dns::Message::MakeQuery(
      3, N("dom5.nl"), dns::RrType::kDnskey, dns::EdnsInfo{512, true, 0});
  auto wire = leaf.HandlePacket(ctx, query.Encode());
  auto response = dns::Message::Decode(wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.tc);

  ctx.transport = dns::Transport::kTcp;
  auto tcp = dns::Message::Decode(leaf.HandlePacket(ctx, query.Encode()));
  ASSERT_TRUE(tcp.has_value());
  EXPECT_FALSE(tcp->header.tc);
  EXPECT_EQ(tcp->answers.size(), 2u);
}

// Pins the exact response bytes across query types, EDNS variants and
// transports, so a rewrite of the leaf's answer synthesis that changes any
// byte (a record, its order, a TTL, the TC bit) shows up as a digest diff.
TEST(LeafAuthTest, ResponseWireBytesMatchPinnedDigest) {
  LeafAuthService leaf{LeafAuthConfig{}};
  struct Case {
    const char* qname;
    dns::RrType qtype;
  };
  const Case cases[] = {
      {"www.dom5.nl", dns::RrType::kA},
      {"ns1.dom7.com", dns::RrType::kA},
      {"a.dom1.nl", dns::RrType::kAaaa},
      {"www.dom5.nl", dns::RrType::kAaaa},
      {"mail.dom2.nz", dns::RrType::kAaaa},
      {"www.dom5.nl", dns::RrType::kNs},  // NODATA below the delegation
      {"dom5.nl", dns::RrType::kDnskey},
      {"dom5.nl", dns::RrType::kDs},
  };
  const std::optional<dns::EdnsInfo> edns_variants[] = {
      std::nullopt, dns::EdnsInfo{512, true, 0}, dns::EdnsInfo{1232, true, 0}};
  std::string blob;
  std::uint16_t id = 1;
  for (const Case& c : cases) {
    for (const auto& edns : edns_variants) {
      for (dns::Transport transport :
           {dns::Transport::kUdp, dns::Transport::kTcp}) {
        sim::PacketContext ctx;
        ctx.src = {*net::IpAddress::Parse("192.0.2.77"), 40000};
        ctx.transport = transport;
        dns::Message query =
            dns::Message::MakeQuery(id++, N(c.qname), c.qtype, edns);
        const auto wire = leaf.HandlePacket(ctx, query.Encode());
        ASSERT_FALSE(wire.empty()) << c.qname;
        blob += std::to_string(wire.size()) + ":";
        blob.append(wire.begin(), wire.end());
      }
    }
  }
  EXPECT_EQ(testutil::Sha256Hex(blob),
            "5db21190cd44188a7195ef4028a7da2915a6773621848e1426622e30d71bb36a");
}

// The leaf writes each answer's RDATA in place. Every one must encode
// exactly as the typed records it stands for (the pin above has no MX,
// TXT or default-type query).
TEST(LeafAuthTest, InPlaceAnswersEncodeAsTheTypedRecords) {
  LeafAuthService leaf{LeafAuthConfig{}};
  const dns::Name qname = N("dom5.nl");
  constexpr std::uint32_t kTtl = 300;
  auto expect_encodes_as = [&](dns::RrType qtype, auto fill) {
    const dns::Message query = dns::Message::MakeQuery(
        7, qname, qtype, dns::EdnsInfo{1232, true, 0});
    dns::Message expected = dns::Message::MakeResponse(query);
    expected.header.aa = true;
    fill(expected);
    sim::PacketContext ctx;
    ctx.transport = dns::Transport::kTcp;
    EXPECT_EQ(leaf.HandlePacket(ctx, query.Encode()), expected.Encode())
        << dns::ToString(qtype);
  };
  expect_encodes_as(dns::RrType::kA, [&](dns::Message& m) {
    m.answers.push_back(
        dns::MakeA(qname, LeafAuthService::SyntheticV4(qname), kTtl));
  });
  expect_encodes_as(dns::RrType::kMx, [&](dns::Message& m) {
    m.answers.push_back(dns::MakeMx(qname, 10, qname.Child("mail"), kTtl));
  });
  expect_encodes_as(dns::RrType::kTxt, [&](dns::Message& m) {
    m.answers.push_back(dns::MakeTxt(qname, "synthetic-leaf", kTtl));
  });
  expect_encodes_as(dns::RrType::kDnskey, [&](dns::Message& m) {
    m.answers = zone::MakeApexDnskeys(qname, kTtl);
  });
  expect_encodes_as(dns::RrType::kDs, [&](dns::Message& m) {
    m.answers.push_back(zone::MakeDs(qname, kTtl));
  });
  expect_encodes_as(dns::RrType::kSrv, [&](dns::Message& m) {
    dns::SoaRdata soa;
    soa.mname = qname;
    soa.rname = qname;
    soa.serial = 1;
    soa.minimum = kTtl;
    m.authorities.push_back(dns::MakeSoa(qname, soa, kTtl));
  });
}

TEST(LeafAuthTest, SyntheticAddressesAreStableAndInRange) {
  auto v4 = LeafAuthService::SyntheticV4(N("host.dom1.nl"));
  EXPECT_EQ(v4, LeafAuthService::SyntheticV4(N("HOST.dom1.NL")));
  EXPECT_EQ(v4.octet(0), 100);

  auto v6 = LeafAuthService::SyntheticV6(N("host.dom1.nl"));
  EXPECT_EQ(v6.group(0), 0x2001);
  EXPECT_EQ(v6.group(1), 0x0db8);
}

TEST(LeafAuthTest, CountsHandledPackets) {
  LeafAuthService leaf{LeafAuthConfig{}};
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.0.0.1"), 33333};
  dns::Message query = dns::Message::MakeQuery(3, N("x.nl"), dns::RrType::kA);
  leaf.HandlePacket(ctx, query.Encode());
  leaf.HandlePacket(ctx, query.Encode());
  EXPECT_EQ(leaf.handled(), 2u);
}

}  // namespace
}  // namespace clouddns::server
