// Shared test fixture: a miniature Internet with a root server, one ccTLD
// (.nl) with two domains, a catch-all leaf authoritative, and a latency
// plane — enough substrate to run full resolutions in unit tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "server/auth_server.h"
#include "server/leaf_auth.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::testutil {

inline dns::Name N(const char* text) { return *dns::Name::Parse(text); }

/// Freezes a hand-built (unsigned) zone and shares it for serving.
inline std::shared_ptr<const zone::Zone> Frozen(zone::Zone zone) {
  zone.Freeze();
  return std::make_shared<const zone::Zone>(std::move(zone));
}

/// The RRSIG a zone at `apex` signed by zone::SignZone serves over the
/// RRset whose first record is `first`, built as a record from the public
/// signing primitives.
inline dns::ResourceRecord ReferenceRrsig(const dns::Name& apex,
                                          const dns::ResourceRecord& first) {
  dns::RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(first.type);
  sig.algorithm = zone::kMockAlgorithm;
  sig.labels = static_cast<std::uint8_t>(first.name.LabelCount());
  sig.original_ttl = first.ttl;
  sig.expiration = zone::kMockExpiration;
  sig.inception = zone::kMockInception;
  sig.key_tag = first.type == dns::RrType::kDnskey ? zone::KskTagFor(apex)
                                                   : zone::ZskTagFor(apex);
  sig.signer = apex;
  sig.signature.resize(zone::kMockSignatureSize);
  zone::FillMockSignature(apex, first.name, first.type, sig.signature);
  return dns::ResourceRecord{first.name, dns::RrType::kRrsig,
                             dns::RrClass::kIn, first.ttl, std::move(sig)};
}

/// Sends `query` to `server` over TCP, so nothing truncates, and decodes
/// the wire answer. Throws std::bad_optional_access when the server drops
/// the query.
inline dns::Message AskOverTcp(sim::PacketHandler& server,
                               const dns::Message& query) {
  sim::PacketContext ctx;
  ctx.transport = dns::Transport::kTcp;
  return dns::Message::Decode(server.HandlePacket(ctx, query.Encode())).value();
}

struct MiniInternet {
  static constexpr const char* kRootV4 = "199.9.14.201";
  static constexpr const char* kRootV6 = "2001:500:200::b";
  static constexpr const char* kNlV4 = "194.0.28.53";
  static constexpr const char* kNlV6 = "2001:678:2c::53";

  MiniInternet(std::size_t nl_domains = 50, bool sign_zones = true) {
    auth_site = latency.AddSite({"AMS", 0, 0, 1.0, 0.0});
    leaf_site = latency.AddSite({"LEAF", 30, 0, 1.0, 0.0});
    resolver_site = latency.AddSite({"FRA", 8, 0, 1.0, 0.0});
    network = std::make_unique<sim::Network>(latency);

    // Root zone delegating .nl (signed).
    zone::ZoneBuildConfig root_config;
    root_config.apex = dns::Name{};
    root_config.nameservers = {
        {N("b.root-servers.net"),
         {*net::IpAddress::Parse(kRootV4), *net::IpAddress::Parse(kRootV6)}}};
    auto root = zone::MakeZoneSkeleton(root_config);
    zone::AddDelegation(
        root, N("nl"),
        {{N("ns1.dns.nl"),
          {*net::IpAddress::Parse(kNlV4), *net::IpAddress::Parse(kNlV6)}}},
        /*with_ds=*/true);
    if (sign_zones) zone::SignZone(root);
    root_zone = Frozen(std::move(root));

    // .nl zone with delegations dom0..domN-1 (half signed).
    zone::ZoneBuildConfig nl_config;
    nl_config.apex = N("nl");
    nl_config.nameservers = {
        {N("ns1.dns.nl"),
         {*net::IpAddress::Parse(kNlV4), *net::IpAddress::Parse(kNlV6)}}};
    auto nl = zone::MakeZoneSkeleton(nl_config);
    zone::PopulateDelegations(nl, nl_domains, "dom", 0.5,
                              net::Ipv4Address(100, 70, 0, 0));
    if (sign_zones) zone::SignZone(nl);
    nl_zone = Frozen(std::move(nl));

    server::AuthServerConfig root_server_config;
    root_server_config.server_id = 0;
    root_server_config.name = "b-root";
    root_server = std::make_unique<server::AuthServer>(root_server_config);
    root_server->Serve(root_zone);
    network->RegisterServer(*net::IpAddress::Parse(kRootV4), auth_site,
                            *root_server);
    network->RegisterServer(*net::IpAddress::Parse(kRootV6), auth_site,
                            *root_server);

    server::AuthServerConfig nl_server_config;
    nl_server_config.server_id = 1;
    nl_server_config.name = "nl-a";
    nl_server = std::make_unique<server::AuthServer>(nl_server_config);
    nl_server->Serve(nl_zone);
    network->RegisterServer(*net::IpAddress::Parse(kNlV4), auth_site,
                            *nl_server);
    network->RegisterServer(*net::IpAddress::Parse(kNlV6), auth_site,
                            *nl_server);

    leaf = std::make_unique<server::LeafAuthService>(server::LeafAuthConfig{});
    network->SetDefaultRoute(leaf_site, *leaf);
  }

  std::vector<net::IpAddress> RootHintsV4() const {
    return {*net::IpAddress::Parse(kRootV4)};
  }
  std::vector<net::IpAddress> RootHintsV6() const {
    return {*net::IpAddress::Parse(kRootV6)};
  }

  sim::LatencyModel latency;
  sim::SiteId auth_site, leaf_site, resolver_site;
  std::unique_ptr<sim::Network> network;
  std::shared_ptr<const zone::Zone> root_zone;
  std::shared_ptr<const zone::Zone> nl_zone;
  std::unique_ptr<server::AuthServer> root_server;
  std::unique_ptr<server::AuthServer> nl_server;
  std::unique_ptr<server::LeafAuthService> leaf;
};

/// Minimal FIPS 180-4 SHA-256 over a byte string, hex-encoded. Determinism
/// tests fingerprint zone wire images and rendered reports with it so a
/// single flipped byte (or a reordered record) shows up as a digest diff.
inline std::string Sha256Hex(std::string_view data) {
  auto rotr = [](std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
  };
  static constexpr std::uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::vector<std::uint8_t> msg(data.begin(), data.end());
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<std::uint8_t>(bit_len >> (8 * i)));
  }
  for (std::size_t chunk = 0; chunk < msg.size(); chunk += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(msg[chunk + 4 * i]) << 24) |
             (static_cast<std::uint32_t>(msg[chunk + 4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(msg[chunk + 4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(msg[chunk + 4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4], f = h[5],
                  g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      hh = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    h[0] += a; h[1] += b; h[2] += c; h[3] += d;
    h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
  }
  std::string hex;
  hex.reserve(64);
  for (std::uint32_t word : h) {
    for (int i = 28; i >= 0; i -= 4) {
      hex.push_back("0123456789abcdef"[(word >> i) & 0xF]);
    }
  }
  return hex;
}

}  // namespace clouddns::testutil
