// Allocation counts of the authoritative serve path. bench/common.h
// replaces the global operator new with a counting one, so this binary
// holds only tests that count allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "../../bench/common.h"
#include "../testutil.h"
#include "server/auth_server.h"
#include "server/leaf_auth.h"

namespace clouddns::server {
namespace {

using testutil::MiniInternet;
using testutil::N;

struct Packet {
  sim::PacketHandler* server;
  dns::Transport transport;
  dns::WireBuffer query;
};

TEST(ServerAllocTest, SteadyStateServeAllocatesNothing) {
  // Sanitizer runtimes interpose the allocator; there nothing is counted.
  if (!CLOUDDNS_BENCH_COUNT_ALLOCS) GTEST_SKIP() << "allocator not counted";
  MiniInternet net;
  AuthServerConfig config;
  config.capture_enabled = false;
  AuthServer root(config);
  root.Serve(net.root_zone);
  AuthServer nl(config);
  nl.Serve(net.nl_zone);
  LeafAuthService leaf{LeafAuthConfig{}};

  struct Case {
    sim::PacketHandler* server;
    const char* qname;
    dns::RrType qtype;
  };
  // AuthServerTest.ResponseWireBytesMatchPinnedDigest's matrix, then every
  // query type the leaf synthesizes an answer for.
  const Case cases[] = {
      {&root, ".", dns::RrType::kSoa},
      {&root, ".", dns::RrType::kNs},
      {&root, ".", dns::RrType::kDnskey},
      {&root, "www.dom0.nl", dns::RrType::kA},
      {&root, "local", dns::RrType::kA},
      {&nl, "nl", dns::RrType::kSoa},
      {&nl, "nl", dns::RrType::kNs},
      {&nl, "nl", dns::RrType::kDnskey},
      {&nl, "www.dom1.nl", dns::RrType::kA},
      {&nl, "www.dom0.nl", dns::RrType::kA},
      {&nl, "dom1.nl", dns::RrType::kDs},
      {&nl, "dna.nl", dns::RrType::kA},
      {&nl, "ns1.dns.nl", dns::RrType::kMx},
      {&nl, "dns.nl", dns::RrType::kA},
      {&nl, "nl", dns::RrType::kAny},
      {&nl, "ns1.dns.nl", dns::RrType::kAny},
      {&leaf, "www.dom5.nl", dns::RrType::kA},
      {&leaf, "a.dom1.nl", dns::RrType::kAaaa},
      {&leaf, "www.dom5.nl", dns::RrType::kAaaa},
      {&leaf, "dom5.nl", dns::RrType::kMx},
      {&leaf, "dom5.nl", dns::RrType::kTxt},
      {&leaf, "dom5.nl", dns::RrType::kDnskey},
      {&leaf, "dom5.nl", dns::RrType::kDs},
      {&leaf, "www.dom5.nl", dns::RrType::kNs},
      {&leaf, "www.dom5.nl", dns::RrType::kSrv},
  };
  const std::optional<dns::EdnsInfo> edns_variants[] = {
      std::nullopt, dns::EdnsInfo{512, true, 0}, dns::EdnsInfo{1232, true, 0}};
  std::vector<Packet> packets;
  std::uint16_t id = 1;
  for (const Case& c : cases) {
    for (const auto& edns : edns_variants) {
      for (dns::Transport transport :
           {dns::Transport::kUdp, dns::Transport::kTcp}) {
        packets.push_back(
            {c.server, transport,
             dns::Message::MakeQuery(id++, N(c.qname), c.qtype, edns)
                 .Encode()});
      }
    }
  }

  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("192.0.2.77"), 40000};
  dns::WireBuffer response;
  // Returns how many packets went unanswered (none should).
  auto serve_all = [&] {
    std::size_t dropped = 0;
    for (const Packet& packet : packets) {
      ctx.transport = packet.transport;
      packet.server->HandlePacket(ctx, packet.query, response);
      dropped += response.empty() ? 1 : 0;
    }
    return dropped;
  };
  // The warm pass grows the scratch query messages and the response buffer.
  EXPECT_EQ(serve_all(), 0u);

  const std::uint64_t before = bench::AllocCount();
  const std::size_t dropped = serve_all();
  const std::uint64_t allocs = bench::AllocCount() - before;
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace clouddns::server
