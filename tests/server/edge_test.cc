// Error-path coverage: malformed queries, unsupported opcodes, lame
// servers, and the resolver's handling of upstream failures.
#include <gtest/gtest.h>

#include "../testutil.h"
#include "resolver/resolver.h"

namespace clouddns::server {
namespace {

using testutil::MiniInternet;
using testutil::N;

TEST(ServerEdgeTest, MultiQuestionQueriesGetFormErr) {
  MiniInternet net;
  dns::Message query = dns::Message::MakeQuery(1, N("nl"), dns::RrType::kSoa);
  query.questions.push_back(
      dns::Question{N("example.nl"), dns::RrType::kA, dns::RrClass::kIn});
  auto response = testutil::AskOverTcp(*net.nl_server, query);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNotImp);
}

TEST(ServerEdgeTest, EmptyQuestionGetsFormErr) {
  MiniInternet net;
  dns::Message query;
  query.header.id = 7;
  auto response = testutil::AskOverTcp(*net.nl_server, query);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kFormErr);
}

TEST(ServerEdgeTest, NonQueryOpcodeGetsNotImp) {
  MiniInternet net;
  dns::Message query = dns::Message::MakeQuery(1, N("nl"), dns::RrType::kSoa);
  query.header.opcode = dns::Opcode::kNotify;
  auto response = testutil::AskOverTcp(*net.nl_server, query);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNotImp);
}

TEST(ServerEdgeTest, ResponsesArriveAtServerAreDropped) {
  MiniInternet net;
  dns::Message response = dns::Message::MakeQuery(1, N("nl"), dns::RrType::kA);
  response.header.qr = true;  // a reflected response, not a query
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.0.0.1"), 1234};
  EXPECT_TRUE(net.nl_server->HandlePacket(ctx, response.Encode()).empty());
  EXPECT_TRUE(net.nl_server->captured().empty());
}

TEST(ServerEdgeTest, CaptureRecordsRefusedQueries) {
  // Out-of-bailiwick queries are REFUSED *and* still captured — the paper
  // counts them as junk (non-NOERROR).
  MiniInternet net;
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.0.0.1"), 1234};
  dns::Message query =
      dns::Message::MakeQuery(1, N("example.com"), dns::RrType::kA);
  auto wire = net.nl_server->HandlePacket(ctx, query.Encode());
  ASSERT_FALSE(wire.empty());
  ASSERT_EQ(net.nl_server->captured().size(), 1u);
  EXPECT_EQ(net.nl_server->captured()[0].rcode, dns::Rcode::kRefused);
  EXPECT_TRUE(dns::IsJunkRcode(net.nl_server->captured()[0].rcode));
}

TEST(ServerEdgeTest, AxfrIsRefusedUncapturedAndBypassesRrl) {
  // No server allows zone transfers: an AXFR gets REFUSED over either
  // transport, never enters the capture, and spends no RRL budget.
  MiniInternet net;
  AuthServerConfig config;
  config.rrl.enabled = true;
  config.rrl.responses_per_second = 0.0;
  config.rrl.burst = 1;
  AuthServer server(config);
  server.Serve(net.nl_zone);
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.0.0.1"), 1234};
  const dns::Message axfr =
      dns::Message::MakeQuery(1, N("nl"), dns::RrType::kAxfr);
  for (dns::Transport transport :
       {dns::Transport::kUdp, dns::Transport::kTcp, dns::Transport::kUdp}) {
    ctx.transport = transport;
    auto response =
        dns::Message::Decode(server.HandlePacket(ctx, axfr.Encode()));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->header.rcode, dns::Rcode::kRefused);
    EXPECT_FALSE(response->header.tc);
    EXPECT_TRUE(response->answers.empty());
  }
  EXPECT_TRUE(server.captured().empty());
  EXPECT_EQ(server.rrl_slips(), 0u);
  // The one-response burst is still unspent: the next UDP query passes.
  const dns::Message soa =
      dns::Message::MakeQuery(2, N("nl"), dns::RrType::kSoa);
  auto answer = dns::Message::Decode(server.HandlePacket(ctx, soa.Encode()));
  ASSERT_TRUE(answer.has_value());
  EXPECT_FALSE(answer->header.tc);
  EXPECT_EQ(answer->answers.size(), 1u);
}

// Sends an AXFR for `apex` over TCP from `source` and checks it is REFUSED
// with nothing in any section and nothing captured.
void ExpectAxfrRefused(AuthServer& server, const char* source,
                       const char* apex) {
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse(source), 40000};
  ctx.transport = dns::Transport::kTcp;
  const dns::Message axfr =
      dns::Message::MakeQuery(1, N(apex), dns::RrType::kAxfr);
  auto response =
      dns::Message::Decode(server.HandlePacket(ctx, axfr.Encode()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->header.rcode, dns::Rcode::kRefused);
  EXPECT_TRUE(response->answers.empty());
  EXPECT_TRUE(response->authorities.empty());
  EXPECT_TRUE(server.captured().empty());
}

TEST(AxfrTest, RefusesDisallowedSources) {
  // There is no transfer allowlist: every source is disallowed, whether a
  // would-be secondary inside the operator's space or an outside host.
  MiniInternet net;
  for (const char* source : {"10.9.1.1", "203.0.113.5", "2001:db8::53"}) {
    ExpectAxfrRefused(*net.nl_server, source, "nl");
  }
}

TEST(AxfrTest, RefusesZonesItDoesNotServe) {
  // Unlike an ordinary out-of-zone query (REFUSED and captured as junk),
  // an AXFR for a foreign zone never reaches the capture.
  MiniInternet net;
  ExpectAxfrRefused(*net.nl_server, "10.9.1.1", "nz");
  ExpectAxfrRefused(*net.nl_server, "10.9.1.1", "example.com");
}

TEST(AxfrTest, NonApexNameRefused) {
  MiniInternet net;
  ExpectAxfrRefused(*net.nl_server, "10.9.1.1", "dom3.nl");
}

TEST(ResolverEdgeTest, LameServerYieldsServFail) {
  // A resolver whose "root hint" points at the .nl server (which refuses
  // out-of-zone queries) must fail cleanly, not loop.
  MiniInternet net;
  resolver::ResolverConfig config;
  resolver::EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = net.resolver_site;
  config.hosts = {host};
  resolver::RecursiveResolver resolver(
      *net.network, config, {*net::IpAddress::Parse(MiniInternet::kNlV4)},
      {});
  auto result = resolver.Resolve(N("www.example.com"), dns::RrType::kA, 1000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
  EXPECT_LE(result.upstream_queries, 2);
}

TEST(ResolverEdgeTest, UnreachableRootYieldsServFail) {
  MiniInternet net;
  resolver::ResolverConfig config;
  resolver::EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = net.resolver_site;
  config.hosts = {host};
  // Hints point at an address no one serves and no default route covers:
  // build a private network without a default route.
  sim::Network isolated(net.latency);
  resolver::RecursiveResolver resolver(
      isolated, config, {*net::IpAddress::Parse("192.0.2.99")}, {});
  auto result = resolver.Resolve(N("www.dom1.nl"), dns::RrType::kA, 1000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
}

TEST(ResolverEdgeTest, HostPoolWithoutUsableFamilyFails) {
  MiniInternet net;
  resolver::ResolverConfig config;
  resolver::EgressHost host;
  host.v6 = *net::IpAddress::Parse("2001:db8:10::1");  // v6-only host
  host.site = net.resolver_site;
  config.hosts = {host};
  // Root hints offered over v4 only: the v6-only host cannot reach them.
  resolver::RecursiveResolver resolver(*net.network, config,
                                       net.RootHintsV4(), {});
  auto result = resolver.Resolve(N("www.dom1.nl"), dns::RrType::kA, 1000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
  EXPECT_EQ(result.upstream_queries, 0);
}

}  // namespace
}  // namespace clouddns::server
