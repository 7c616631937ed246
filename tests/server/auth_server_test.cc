#include "server/auth_server.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "../testutil.h"

namespace clouddns::server {
namespace {

using testutil::MiniInternet;
using testutil::N;

dns::Message Ask(AuthServer& server, const char* qname, dns::RrType qtype,
                 std::optional<dns::EdnsInfo> edns = std::nullopt) {
  return testutil::AskOverTcp(
      server, dns::Message::MakeQuery(42, N(qname), qtype, edns));
}

TEST(AuthServerTest, AuthoritativeAnswerAtApex) {
  MiniInternet net;
  auto response = Ask(*net.nl_server, "nl", dns::RrType::kSoa);
  EXPECT_TRUE(response.header.aa);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(response.answers[0].type, dns::RrType::kSoa);
}

TEST(AuthServerTest, ReferralIsNotAuthoritative) {
  MiniInternet net;
  auto response = Ask(*net.nl_server, "www.dom3.nl", dns::RrType::kA);
  EXPECT_FALSE(response.header.aa);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
  ASSERT_GE(response.authorities.size(), 2u);
  EXPECT_EQ(response.authorities[0].type, dns::RrType::kNs);
  EXPECT_FALSE(response.additionals.empty());  // glue
}

TEST(AuthServerTest, ReferralIncludesDsOnlyWithDoBit) {
  MiniInternet net;
  // dom1 is signed (PopulateDelegations signs every other domain; acc
  // crosses 1.0 at i=1,3,5...).
  auto plain = Ask(*net.nl_server, "www.dom1.nl", dns::RrType::kA,
                   dns::EdnsInfo{4096, false, 0});
  bool has_ds_plain = false;
  for (const auto& rr : plain.authorities) {
    has_ds_plain |= rr.type == dns::RrType::kDs;
  }
  EXPECT_FALSE(has_ds_plain);

  auto dnssec = Ask(*net.nl_server, "www.dom1.nl", dns::RrType::kA,
                    dns::EdnsInfo{4096, true, 0});
  bool has_ds = false, has_rrsig = false;
  for (const auto& rr : dnssec.authorities) {
    has_ds |= rr.type == dns::RrType::kDs;
    has_rrsig |= rr.type == dns::RrType::kRrsig;
  }
  EXPECT_TRUE(has_ds);
  EXPECT_TRUE(has_rrsig);
}

TEST(AuthServerTest, NxDomainCarriesSoa) {
  MiniInternet net;
  auto response = Ask(*net.nl_server, "no-such-domain-xyz.nl", dns::RrType::kA);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNxDomain);
  EXPECT_TRUE(response.header.aa);
  ASSERT_FALSE(response.authorities.empty());
  EXPECT_EQ(response.authorities[0].type, dns::RrType::kSoa);
}

TEST(AuthServerTest, SignedNxDomainCarriesDenialProof) {
  MiniInternet net;
  auto response = Ask(*net.nl_server, "no-such-domain-xyz.nl", dns::RrType::kA,
                      dns::EdnsInfo{4096, true, 0});
  bool has_nsec = false, has_rrsig = false;
  for (const auto& rr : response.authorities) {
    has_nsec |= rr.type == dns::RrType::kNsec;
    has_rrsig |= rr.type == dns::RrType::kRrsig;
  }
  EXPECT_TRUE(has_nsec);
  EXPECT_TRUE(has_rrsig);
}

TEST(AuthServerTest, RefusesOutOfBailiwickQueries) {
  MiniInternet net;
  auto response = Ask(*net.nl_server, "example.com", dns::RrType::kA);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kRefused);
}

TEST(AuthServerTest, RootServerAnswersAndDelegates) {
  MiniInternet net;
  auto delegation = Ask(*net.root_server, "www.dom0.nl", dns::RrType::kA);
  EXPECT_EQ(delegation.header.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(delegation.authorities.empty());
  EXPECT_EQ(delegation.authorities[0].name, N("nl"));

  auto junk = Ask(*net.root_server, "local", dns::RrType::kA);
  EXPECT_EQ(junk.header.rcode, dns::Rcode::kNxDomain);
}

TEST(AuthServerTest, MultiZoneServerPicksDeepestApex) {
  // A .nz-style server authoritative for both nz and co.nz.
  zone::ZoneBuildConfig nz_config;
  nz_config.apex = N("nz");
  nz_config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("192.0.2.60")}}};
  auto nz = zone::MakeZoneSkeleton(nz_config);

  zone::ZoneBuildConfig co_config;
  co_config.apex = N("co.nz");
  co_config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("192.0.2.60")}}};
  auto co = zone::MakeZoneSkeleton(co_config);
  zone::AddDelegation(co, N("shop.co.nz"),
                      {{N("ns1.shop.co.nz"),
                        {*net::IpAddress::Parse("100.70.1.1")}}},
                      false);

  AuthServer server(AuthServerConfig{});
  server.Serve(testutil::Frozen(std::move(nz)));
  server.Serve(testutil::Frozen(std::move(co)));

  // co.nz apex should be answered from the co.nz zone, not as NXDOMAIN
  // within nz.
  auto response = Ask(server, "co.nz", dns::RrType::kSoa);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(response.answers.size(), 1u);

  auto referral = Ask(server, "www.shop.co.nz", dns::RrType::kA);
  EXPECT_TRUE(referral.answers.empty());
  ASSERT_FALSE(referral.authorities.empty());
  EXPECT_EQ(referral.authorities[0].name, N("shop.co.nz"));
}

TEST(AuthServerTest, HandlePacketCapturesEveryQuery) {
  MiniInternet net;
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("8.8.8.8"), 50000};
  ctx.transport = dns::Transport::kUdp;
  ctx.time_us = 12345;
  ctx.server_site = net.auth_site;

  dns::Message query = dns::Message::MakeQuery(
      7, N("www.dom2.nl"), dns::RrType::kA, dns::EdnsInfo{1232, true, 0});
  auto wire = net.nl_server->HandlePacket(ctx, query.Encode());
  EXPECT_FALSE(wire.empty());

  ASSERT_EQ(net.nl_server->captured().size(), 1u);
  const auto& record = net.nl_server->captured()[0];
  EXPECT_EQ(record.src.ToString(), "8.8.8.8");
  EXPECT_EQ(record.qname, N("www.dom2.nl"));
  EXPECT_EQ(record.qtype, dns::RrType::kA);
  EXPECT_EQ(record.edns_udp_size, 1232);
  EXPECT_TRUE(record.do_bit);
  EXPECT_EQ(record.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(record.transport, dns::Transport::kUdp);
  EXPECT_EQ(record.time_us, 12345u);
}

TEST(AuthServerTest, HandlePacketDropsGarbageWithoutCapture) {
  MiniInternet net;
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("8.8.8.8"), 50000};
  EXPECT_TRUE(net.nl_server->HandlePacket(ctx, {1, 2, 3}).empty());
  EXPECT_TRUE(net.nl_server->captured().empty());
}

TEST(AuthServerTest, TruncatesOversizedUdpAndRecordsTc) {
  MiniInternet net;
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("203.0.113.5"), 40000};
  ctx.transport = dns::Transport::kUdp;

  // Signed NXDOMAIN with DO at EDNS 512 exceeds the limit (SOA + RRSIG +
  // NSEC + RRSIG with RSA-sized signatures).
  dns::Message query = dns::Message::MakeQuery(
      9, N("nonexistent-junk.nl"), dns::RrType::kA, dns::EdnsInfo{512, true, 0});
  auto wire = net.nl_server->HandlePacket(ctx, query.Encode());
  auto response = dns::Message::Decode(wire);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->header.tc);
  EXPECT_LE(wire.size(), 512u);
  EXPECT_TRUE(net.nl_server->captured().back().tc);

  // The same query over TCP returns the full answer.
  ctx.transport = dns::Transport::kTcp;
  ctx.handshake_rtt_us = 30000;
  auto tcp_wire = net.nl_server->HandlePacket(ctx, query.Encode());
  auto tcp_response = dns::Message::Decode(tcp_wire);
  ASSERT_TRUE(tcp_response.has_value());
  EXPECT_FALSE(tcp_response->header.tc);
  EXPECT_GT(tcp_wire.size(), 512u);
  EXPECT_EQ(net.nl_server->captured().back().tcp_handshake_rtt_us, 30000u);
}

TEST(AuthServerTest, CaptureCanBeDisabled) {
  AuthServerConfig config;
  config.capture_enabled = false;
  AuthServer server(config);
  zone::ZoneBuildConfig zone_config;
  zone_config.apex = N("nl");
  zone_config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.53")}}};
  server.Serve(testutil::Frozen(zone::MakeZoneSkeleton(zone_config)));

  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("8.8.8.8"), 50000};
  dns::Message query = dns::Message::MakeQuery(7, N("nl"), dns::RrType::kSoa);
  EXPECT_FALSE(server.HandlePacket(ctx, query.Encode()).empty());
  EXPECT_TRUE(server.captured().empty());
}

// Fixed reference for the serve path: the wire bytes HandlePacket returns
// from the signed root and .nl for a matrix covering every response shape
// (apex data, referrals with and without DS, A+AAAA glue, DS at the cut,
// range and NODATA denials, ANY), each without EDNS, at EDNS 512 DO=1
// (truncates) and at EDNS 1232 DO=1, over UDP and TCP. The digest was
// computed once and must never be edited: a change here changes bytes on
// the wire.
TEST(AuthServerTest, ResponseWireBytesMatchPinnedDigest) {
  MiniInternet net;
  struct Case {
    AuthServer* server;
    const char* qname;
    dns::RrType qtype;
  };
  const Case cases[] = {
      {net.root_server.get(), ".", dns::RrType::kSoa},
      {net.root_server.get(), ".", dns::RrType::kNs},
      {net.root_server.get(), ".", dns::RrType::kDnskey},
      {net.root_server.get(), "www.dom0.nl", dns::RrType::kA},  // DS referral
      {net.root_server.get(), "local", dns::RrType::kA},  // next is ENT "net"
      {net.nl_server.get(), "nl", dns::RrType::kSoa},
      {net.nl_server.get(), "nl", dns::RrType::kNs},
      {net.nl_server.get(), "nl", dns::RrType::kDnskey},
      {net.nl_server.get(), "www.dom1.nl", dns::RrType::kA},  // DS, A+AAAA glue
      {net.nl_server.get(), "www.dom0.nl", dns::RrType::kA},  // no DS, A glue
      {net.nl_server.get(), "dom1.nl", dns::RrType::kDs},     // DS at the cut
      {net.nl_server.get(), "dna.nl", dns::RrType::kA},  // next is ENT dns.nl
      {net.nl_server.get(), "ns1.dns.nl", dns::RrType::kMx},  // NODATA
      {net.nl_server.get(), "dns.nl", dns::RrType::kA},       // ENT NODATA
      {net.nl_server.get(), "nl", dns::RrType::kAny},
      {net.nl_server.get(), "ns1.dns.nl", dns::RrType::kAny},
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
        const auto wire = c.server->HandlePacket(ctx, query.Encode());
        ASSERT_FALSE(wire.empty()) << c.qname;
        blob += std::to_string(wire.size()) + ":";
        blob.append(wire.begin(), wire.end());
      }
    }
  }
  EXPECT_EQ(testutil::Sha256Hex(blob),
            "91c935f37a8ac72fdfccbec5a52a29b56bf132d17deb43388d52056af3b84a7e");
}

// Fixed reference for qtype=RRSIG, which the matrix above leaves out: the
// apex, a glue-only owner, a referral, and an owner that holds only a
// CNAME (where a lookup of an empty type falls back to the CNAME), each
// without EDNS, at EDNS 512 DO=1 and at EDNS 1232 DO=1, over UDP and TCP.
// The digest was computed once and must never be edited.
TEST(AuthServerTest, RrsigQueryWireBytesMatchPinnedDigest) {
  MiniInternet net;
  zone::ZoneBuildConfig config;
  config.apex = N("example");
  config.nameservers = {
      {N("ns1.example"), {*net::IpAddress::Parse("192.0.2.80")}}};
  zone::Zone example = zone::MakeZoneSkeleton(config);
  example.Add(dns::ResourceRecord{N("alias.example"), dns::RrType::kCname,
                                  dns::RrClass::kIn, 300,
                                  dns::CnameRdata{N("ns1.example")}});
  zone::SignZone(example);
  AuthServer example_server(AuthServerConfig{});
  example_server.Serve(
      std::make_shared<const zone::Zone>(std::move(example)));

  struct Case {
    AuthServer* server;
    const char* qname;
  };
  const Case cases[] = {
      {net.nl_server.get(), "nl"},
      {net.nl_server.get(), "ns1.dns.nl"},
      {net.nl_server.get(), "www.dom1.nl"},  // referral
      {&example_server, "alias.example"},    // CNAME only
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
        dns::Message query = dns::Message::MakeQuery(
            id++, N(c.qname), dns::RrType::kRrsig, edns);
        const auto wire = c.server->HandlePacket(ctx, query.Encode());
        ASSERT_FALSE(wire.empty()) << c.qname;
        blob += std::to_string(wire.size()) + ":";
        blob.append(wire.begin(), wire.end());
      }
    }
  }
  EXPECT_EQ(testutil::Sha256Hex(blob),
            "05fe46ebc68d22476d21d786f6111a45bc5ad9835ecd94c621064c0545dfb36c");
}

TEST(RrlTest, DisabledAllowsEverything) {
  ResponseRateLimiter rrl(RrlConfig{});
  auto src = *net::IpAddress::Parse("10.0.0.1");
  for (int i = 0; i < 10000; ++i) EXPECT_TRUE(rrl.Allow(src, 0));
}

TEST(RrlTest, BurstThenThrottle) {
  RrlConfig config;
  config.enabled = true;
  config.responses_per_second = 10;
  config.burst = 5;
  ResponseRateLimiter rrl(config);
  auto src = *net::IpAddress::Parse("10.0.0.1");

  sim::TimeUs t = 1'000'000;
  int allowed = 0;
  for (int i = 0; i < 20; ++i) allowed += rrl.Allow(src, t);
  EXPECT_EQ(allowed, 5);  // burst only
  EXPECT_EQ(rrl.slip_count(), 15u);

  // After one second, ~10 more tokens have refilled.
  t += sim::kMicrosPerSecond;
  allowed = 0;
  for (int i = 0; i < 20; ++i) allowed += rrl.Allow(src, t);
  EXPECT_EQ(allowed, 5);  // refill is capped at burst
}

TEST(RrlTest, BurstThenThrottleFromTimeZero) {
  // Time 0 is an ordinary instant: a source first seen then gets one
  // burst, not a refill on every query.
  RrlConfig config;
  config.enabled = true;
  config.responses_per_second = 10;
  config.burst = 5;
  ResponseRateLimiter rrl(config);
  auto src = *net::IpAddress::Parse("10.0.0.1");

  int allowed = 0;
  for (int i = 0; i < 20; ++i) allowed += rrl.Allow(src, 0);
  EXPECT_EQ(allowed, 5);
  EXPECT_EQ(rrl.slip_count(), 15u);

  // A quarter second later 2.5 tokens have refilled.
  allowed = 0;
  for (int i = 0; i < 20; ++i) {
    allowed += rrl.Allow(src, sim::kMicrosPerSecond / 4);
  }
  EXPECT_EQ(allowed, 2);
}

TEST(RrlTest, PerSourceIsolation) {
  RrlConfig config;
  config.enabled = true;
  config.responses_per_second = 1;
  config.burst = 2;
  ResponseRateLimiter rrl(config);
  auto noisy = *net::IpAddress::Parse("10.0.0.1");
  auto quiet = *net::IpAddress::Parse("10.0.0.2");

  sim::TimeUs t = 1'000'000;
  for (int i = 0; i < 10; ++i) (void)rrl.Allow(noisy, t);
  EXPECT_TRUE(rrl.Allow(quiet, t));  // unaffected by the noisy source
}

TEST(RrlTest, SlipForcesTcpRetryPath) {
  MiniInternet net;
  AuthServerConfig config;
  config.rrl.enabled = true;
  config.rrl.responses_per_second = 0.0;
  config.rrl.burst = 1;
  AuthServer server(config);
  server.Serve(net.nl_zone);

  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.9.9.9"), 40000};
  ctx.transport = dns::Transport::kUdp;
  ctx.time_us = 1'000'000;
  dns::Message query = dns::Message::MakeQuery(7, N("nl"), dns::RrType::kSoa);

  // First query passes, second slips with TC=1.
  auto first = dns::Message::Decode(server.HandlePacket(ctx, query.Encode()));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->header.tc);
  auto second = dns::Message::Decode(server.HandlePacket(ctx, query.Encode()));
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->header.tc);
  EXPECT_TRUE(second->answers.empty());

  // TCP is exempt from RRL.
  ctx.transport = dns::Transport::kTcp;
  auto tcp = dns::Message::Decode(server.HandlePacket(ctx, query.Encode()));
  ASSERT_TRUE(tcp.has_value());
  EXPECT_FALSE(tcp->header.tc);
  EXPECT_FALSE(tcp->answers.empty());
}

}  // namespace
}  // namespace clouddns::server
