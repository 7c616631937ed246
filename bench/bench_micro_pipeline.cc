// End-to-end pipeline microbenchmarks: full resolutions through the
// resolver/network/server stack, zone build and signing, and simulation
// throughput per client query — the numbers that justify the scaled-down
// capture budgets. The resolution, zone and server benchmarks also report
// heap allocations, counted by common.h's replacement operator new.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "cloud/scenario.h"
#include "common.h"
#include "resolver/resolver.h"
#include "server/auth_server.h"
#include "server/leaf_auth.h"
#include "sim/network.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

using namespace clouddns;

namespace {

struct Pipeline {
  Pipeline() {
    auth_site = latency.AddSite({"AMS", 0, 0, 1.0, 0.0});
    resolver_site = latency.AddSite({"FRA", 8, 0, 1.0, 0.0});
    network = std::make_unique<sim::Network>(latency);

    zone::ZoneBuildConfig root_config;
    root_config.apex = dns::Name{};
    root_config.nameservers = {
        {*dns::Name::Parse("b.root-servers.example"),
         {*net::IpAddress::Parse("198.41.0.4")}}};
    auto root = zone::MakeZoneSkeleton(root_config);
    zone::AddDelegation(root, *dns::Name::Parse("nl"),
                        {{*dns::Name::Parse("ns1.dns.nl"),
                          {*net::IpAddress::Parse("194.0.28.1")}}},
                        true, 172800);
    zone::SignZone(root);
    root_zone = std::make_shared<const zone::Zone>(std::move(root));

    zone::ZoneBuildConfig nl_config;
    nl_config.apex = *dns::Name::Parse("nl");
    nl_config.nameservers = {{*dns::Name::Parse("ns1.dns.nl"),
                              {*net::IpAddress::Parse("194.0.28.1")}}};
    auto nl = zone::MakeZoneSkeleton(nl_config);
    zone::PopulateDelegations(nl, 20000, "dom", 0.55,
                              net::Ipv4Address(100, 70, 0, 0));
    zone::SignZone(nl);
    nl_zone = std::make_shared<const zone::Zone>(std::move(nl));

    root_server = std::make_unique<server::AuthServer>(
        server::AuthServerConfig{});
    root_server->Serve(root_zone);
    network->RegisterServer(*net::IpAddress::Parse("198.41.0.4"), auth_site,
                            *root_server);
    nl_server =
        std::make_unique<server::AuthServer>(server::AuthServerConfig{});
    nl_server->Serve(nl_zone);
    network->RegisterServer(*net::IpAddress::Parse("194.0.28.1"), auth_site,
                            *nl_server);
    leaf = std::make_unique<server::LeafAuthService>(server::LeafAuthConfig{});
    network->SetDefaultRoute(auth_site, *leaf);
  }

  resolver::RecursiveResolver MakeResolver(bool qmin, bool validate) {
    resolver::ResolverConfig config;
    resolver::EgressHost host;
    host.v4 = *net::IpAddress::Parse("10.1.0.1");
    host.site = resolver_site;
    config.hosts = {host};
    config.qname_minimization = qmin;
    config.validate_dnssec = validate;
    return resolver::RecursiveResolver(
        *network, config, {*net::IpAddress::Parse("198.41.0.4")}, {});
  }

  sim::LatencyModel latency;
  sim::SiteId auth_site, resolver_site;
  std::unique_ptr<sim::Network> network;
  std::shared_ptr<const zone::Zone> root_zone, nl_zone;
  std::unique_ptr<server::AuthServer> root_server, nl_server;
  std::unique_ptr<server::LeafAuthService> leaf;
};

void BM_ColdResolution(benchmark::State& state) {
  Pipeline pipeline;
  std::optional<resolver::RecursiveResolver> resolver;
  sim::Rng rng(7);
  sim::TimeUs now = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    // A fresh resolver per iteration, built untimed, holds no cached
    // delegation: every timed resolution descends root -> .nl -> leaf, so
    // ns/op does not depend on the iteration count.
    state.PauseTiming();
    resolver.reset();
    resolver.emplace(pipeline.MakeResolver(state.range(0) != 0, false));
    dns::Name qname = *dns::Name::Parse(
        "www.dom" + std::to_string(rng.NextBelow(20000)) + ".nl");
    now += 1000;
    state.ResumeTiming();
    // Counts the resolution only, not the set-up above.
    const std::uint64_t allocs_before = bench::AllocCount();
    benchmark::DoNotOptimize(resolver->Resolve(qname, dns::RrType::kA, now));
    allocs += bench::AllocCount() - allocs_before;
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ColdResolution)->Arg(0)->Arg(1)->ArgNames({"qmin"});

void BM_WarmResolution(benchmark::State& state) {
  Pipeline pipeline;
  auto resolver = pipeline.MakeResolver(false, false);
  dns::Name qname = *dns::Name::Parse("www.dom7.nl");
  resolver.Resolve(qname, dns::RrType::kA, 1);
  const std::uint64_t allocs_before = bench::AllocCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(resolver.Resolve(qname, dns::RrType::kA, 1000));
  }
  // A cache hit borrows the cached answer: this reads 0.
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::AllocCount() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_WarmResolution);

void BM_AuthServerRespond(benchmark::State& state) {
  Pipeline pipeline;
  dns::Message query = dns::Message::MakeQuery(
      9, *dns::Name::Parse("www.dom42.nl"), dns::RrType::kA,
      dns::EdnsInfo{1232, true, 0});
  dns::WireBuffer wire = query.Encode();
  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.1.0.1"), 40000};
  dns::WireBuffer response;
  pipeline.nl_server->HandlePacket(ctx, wire, response);
  const std::uint64_t allocs_before = bench::AllocCount();
  for (auto _ : state) {
    pipeline.nl_server->HandlePacket(ctx, wire, response);
    benchmark::DoNotOptimize(response.data());
  }
  // The response buffer is reused, so this counts the server alone (its
  // capture log's amortized growth included).
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::AllocCount() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_AuthServerRespond);

void BM_AuthServerMix(benchmark::State& state) {
  // The authoritative side of resolver_stack, one packet per iteration:
  // DO=1 referrals with and without DS, NXDOMAIN range proofs, NODATA,
  // .nl and leaf DNSKEY (truncating at EDNS 512, then retried over TCP),
  // leaf DS and the leaf's A/AAAA answers. Servers capture nothing, as
  // in resolver_stack.
  Pipeline pipeline;
  server::AuthServerConfig config;
  config.capture_enabled = false;
  server::AuthServer nl_server(config);
  nl_server.Serve(pipeline.nl_zone);
  server::LeafAuthService leaf(server::LeafAuthConfig{});

  struct Packet {
    sim::PacketHandler* server;
    dns::Transport transport;
    dns::WireBuffer query;
  };
  std::vector<Packet> packets;
  sim::Rng rng(11);
  const dns::EdnsInfo modern{1232, true, 0};
  const dns::EdnsInfo small{512, true, 0};
  auto add = [&](sim::PacketHandler& server, const std::string& qname,
                 dns::RrType qtype, std::optional<dns::EdnsInfo> edns,
                 dns::Transport transport = dns::Transport::kUdp) {
    packets.push_back(
        {&server, transport,
         dns::Message::MakeQuery(static_cast<std::uint16_t>(packets.size()),
                                 *dns::Name::Parse(qname), qtype, edns)
             .Encode()});
  };
  for (int i = 0; i < 256; ++i) {
    const std::string domain =
        "dom" + std::to_string(rng.NextBelow(20000)) + ".nl";
    add(nl_server, "www." + domain, dns::RrType::kA, modern);  // referral
    add(nl_server, domain, dns::RrType::kNs, std::nullopt);
    add(nl_server, "nx" + std::to_string(i) + ".nl", dns::RrType::kA,
        modern);  // NXDOMAIN with a range proof
    add(nl_server, "dns.nl", dns::RrType::kA, modern);  // NODATA at an ENT
    add(nl_server, "nl", dns::RrType::kDnskey, modern);
    add(nl_server, "nl", dns::RrType::kDnskey, small);  // truncates
    add(nl_server, "nl", dns::RrType::kDnskey, small, dns::Transport::kTcp);
    add(leaf, "www." + domain, dns::RrType::kA, modern);
    add(leaf, "www." + domain, dns::RrType::kAaaa, std::nullopt);
    add(leaf, domain, dns::RrType::kDnskey, small);  // truncates
    add(leaf, domain, dns::RrType::kDnskey, small, dns::Transport::kTcp);
    add(leaf, "sub." + domain, dns::RrType::kDs, modern);
  }

  sim::PacketContext ctx;
  ctx.src = {*net::IpAddress::Parse("10.1.0.1"), 40000};
  dns::WireBuffer response;
  auto serve = [&](const Packet& packet) {
    ctx.transport = packet.transport;
    packet.server->HandlePacket(ctx, packet.query, response);
    benchmark::DoNotOptimize(response.data());
  };
  for (const Packet& packet : packets) serve(packet);  // warm the scratch
  std::size_t next = 0;
  const std::uint64_t allocs_before = bench::AllocCount();
  for (auto _ : state) {
    serve(packets[next]);
    if (++next == packets.size()) next = 0;
  }
  state.counters["allocs_per_op"] =
      static_cast<double>(bench::AllocCount() - allocs_before) /
      static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AuthServerMix);

void BM_ZoneBuildSign(benchmark::State& state) {
  // One signed ccTLD image at the .nl 2020 scale of the cold datasets:
  // skeleton, 11800 delegations, then SignZone.
  std::size_t records = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t allocs_before = bench::AllocCount();
    zone::ZoneBuildConfig config;
    config.apex = *dns::Name::Parse("nl");
    config.nameservers = {{*dns::Name::Parse("ns1.dns.nl"),
                           {*net::IpAddress::Parse("194.0.28.1")}}};
    zone::Zone nl = zone::MakeZoneSkeleton(config);
    zone::PopulateDelegations(nl, 11800, "dom", 0.55,
                              net::Ipv4Address(100, 70, 0, 0));
    zone::SignZone(nl);
    allocs += bench::AllocCount() - allocs_before;
    records = nl.record_count();
    benchmark::DoNotOptimize(nl);
  }
  state.counters["records"] = static_cast<double>(records);
  state.counters["allocs_per_record"] =
      static_cast<double>(allocs) /
      (static_cast<double>(records) * static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ZoneBuildSign)->Unit(benchmark::kMillisecond);

void BM_ScenarioThroughput(benchmark::State& state) {
  // Whole-pipeline cost per client query at a tiny scale.
  for (auto _ : state) {
    cloud::ScenarioConfig config;
    config.vantage = cloud::Vantage::kNl;
    config.year = 2020;
    config.client_queries = 20000;
    config.zone_scale = 0.0005;
    benchmark::DoNotOptimize(cloud::RunScenario(config));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_ScenarioThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
