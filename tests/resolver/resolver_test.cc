#include "resolver/resolver.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace clouddns::resolver {
namespace {

using testutil::MiniInternet;
using testutil::N;

ResolverConfig BasicConfig(const MiniInternet& net,
                           bool with_v6_host = false) {
  ResolverConfig config;
  EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  if (with_v6_host) host.v6 = *net::IpAddress::Parse("2001:db8:10::1");
  host.site = net.resolver_site;
  config.hosts = {host};
  return config;
}

RecursiveResolver MakeResolver(MiniInternet& net, ResolverConfig config) {
  return RecursiveResolver(*net.network, std::move(config), net.RootHintsV4(),
                           net.RootHintsV6());
}

int CountQtype(const capture::CaptureBuffer& records, dns::RrType qtype) {
  int count = 0;
  for (const auto& r : records) count += r.qtype == qtype;
  return count;
}

TEST(ResolverTest, ResolvesThroughRootAndTld) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1000000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(result.records.empty());
  EXPECT_EQ(result.records[0].type, dns::RrType::kA);
  EXPECT_FALSE(result.from_cache);
  // One query at the root, one at .nl, one at the leaf.
  EXPECT_EQ(net.root_server->captured().size(), 1u);
  EXPECT_EQ(net.nl_server->captured().size(), 1u);
  EXPECT_EQ(result.upstream_queries, 3);
}

TEST(ResolverTest, AnswerIsCachedAndServedLocally) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  auto first = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1000000);
  ASSERT_EQ(first.rcode, dns::Rcode::kNoError);
  // The records are borrowed until the next Resolve: copy them out.
  const std::vector<dns::ResourceRecord> first_records(first.records.begin(),
                                                       first.records.end());
  auto second = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 2000000);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.upstream_queries, 0);
  EXPECT_EQ(std::vector<dns::ResourceRecord>(second.records.begin(),
                                             second.records.end()),
            first_records);
}

TEST(ResolverTest, ResultRecordsMatchTheCachedAnswer) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));

  // A fresh answer borrows the decoded response; copy it before the next
  // call ends the span's lifetime.
  auto fresh = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  ASSERT_EQ(fresh.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(fresh.from_cache);
  ASSERT_FALSE(fresh.records.empty());
  const std::vector<dns::ResourceRecord> answered(fresh.records.begin(),
                                                  fresh.records.end());

  // A hit serves exactly the stored answer, borrowed from the cache entry:
  // two consecutive hits point at the same records.
  auto hit = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 2'000'000);
  ASSERT_TRUE(hit.from_cache);
  EXPECT_EQ(std::vector<dns::ResourceRecord>(hit.records.begin(),
                                             hit.records.end()),
            answered);
  const dns::ResourceRecord* first_hit = hit.records.data();
  auto again = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 3'000'000);
  ASSERT_TRUE(again.from_cache);
  EXPECT_EQ(again.records.data(), first_hit);
  EXPECT_EQ(again.records.size(), answered.size());
}

TEST(ResolverTest, InfraCacheSkipsRootAndTldForSiblingNames) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  std::size_t root_before = net.root_server->captured().size();

  // A different host under the same domain: leaf-only traffic.
  resolver.Resolve(N("mail.dom3.nl"), dns::RrType::kA, 2'000'000);
  EXPECT_EQ(net.root_server->captured().size(), root_before);
  EXPECT_EQ(net.nl_server->captured().size(), 1u);

  // A different domain under .nl: one more TLD query, still no root.
  resolver.Resolve(N("www.dom7.nl"), dns::RrType::kA, 3'000'000);
  EXPECT_EQ(net.root_server->captured().size(), root_before);
  EXPECT_EQ(net.nl_server->captured().size(), 2u);
}

TEST(ResolverTest, CacheExpiryTriggersRefetch) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 0);
  // Leaf answers have TTL 300s; after 400s the answer cache must miss.
  auto later = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA,
                                400ull * sim::kMicrosPerSecond);
  EXPECT_FALSE(later.from_cache);
  EXPECT_GT(later.upstream_queries, 0);
}

TEST(ResolverTest, NxDomainIsNegativeCached) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  auto first = resolver.Resolve(N("nosuch.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(first.rcode, dns::Rcode::kNxDomain);
  EXPECT_EQ(net.nl_server->captured().size(), 1u);

  auto second = resolver.Resolve(N("nosuch.nl"), dns::RrType::kA, 2'000'000);
  EXPECT_EQ(second.rcode, dns::Rcode::kNxDomain);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(net.nl_server->captured().size(), 1u);

  // The negative TTL (600s) eventually lapses.
  auto third = resolver.Resolve(N("nosuch.nl"), dns::RrType::kA,
                                700ull * sim::kMicrosPerSecond);
  EXPECT_EQ(third.rcode, dns::Rcode::kNxDomain);
  EXPECT_FALSE(third.from_cache);
}

TEST(ResolverTest, JunkTldGoesToRootOnly) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  auto result = resolver.Resolve(N("qwhjfzzr"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNxDomain);
  EXPECT_EQ(net.root_server->captured().size(), 1u);
  EXPECT_EQ(net.nl_server->captured().size(), 0u);
  EXPECT_EQ(net.root_server->captured()[0].rcode, dns::Rcode::kNxDomain);
}

TEST(ResolverTest, WithoutQminTldSeesOriginalQtype) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  resolver.Resolve(N("www.dom3.nl"), dns::RrType::kAaaa, 1'000'000);
  ASSERT_EQ(net.nl_server->captured().size(), 1u);
  EXPECT_EQ(net.nl_server->captured()[0].qtype, dns::RrType::kAaaa);
  EXPECT_EQ(net.nl_server->captured()[0].qname, N("www.dom3.nl"));
}

TEST(ResolverTest, QminTldSeesNsQueryForMinimizedName) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.qname_minimization = true;
  auto resolver = MakeResolver(net, config);
  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kAaaa,
                                 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(net.nl_server->captured().size(), 1u);
  EXPECT_EQ(net.nl_server->captured()[0].qtype, dns::RrType::kNs);
  EXPECT_EQ(net.nl_server->captured()[0].qname, N("dom3.nl"));
  // The root likewise only learns one label.
  ASSERT_EQ(net.root_server->captured().size(), 1u);
  EXPECT_EQ(net.root_server->captured()[0].qname, N("nl"));
}

TEST(ResolverTest, QminRolloutInstantIsRespected) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.qname_minimization = true;
  config.qmin_enabled_at = 100ull * sim::kMicrosPerSecond;
  auto resolver = MakeResolver(net, config);

  resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 0);
  ASSERT_EQ(net.nl_server->captured().size(), 1u);
  EXPECT_EQ(net.nl_server->captured()[0].qtype, dns::RrType::kA);

  // After rollout, a fresh domain shows the minimized pattern.
  resolver.Resolve(N("www.dom8.nl"), dns::RrType::kA,
                   200ull * sim::kMicrosPerSecond);
  ASSERT_EQ(net.nl_server->captured().size(), 2u);
  EXPECT_EQ(net.nl_server->captured()[1].qtype, dns::RrType::kNs);
}

TEST(ResolverTest, ReferralDsValidatorSendsNoDsQueries) {
  // Default validators consume the DS set served in DO=1 referrals and
  // never issue standalone DS queries.
  MiniInternet net;
  auto config = BasicConfig(net);
  config.validate_dnssec = true;
  auto resolver = MakeResolver(net, config);
  auto result = resolver.Resolve(N("www.dom1.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDs), 0);
  // DO is still set on every query, and DNSKEYs are still fetched.
  for (const auto& record : net.nl_server->captured()) {
    EXPECT_TRUE(record.do_bit);
  }
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDnskey), 1);
}

TEST(ResolverTest, ValidatorFetchesDsAndDnskey) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.validate_dnssec = true;
  config.explicit_ds_fetch = true;
  auto resolver = MakeResolver(net, config);
  // dom1 is signed.
  auto result = resolver.Resolve(N("www.dom1.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);

  // At the root: DNSKEY(.), the nl walk query, and DS(nl).
  EXPECT_EQ(CountQtype(net.root_server->captured(), dns::RrType::kDnskey), 1);
  EXPECT_EQ(CountQtype(net.root_server->captured(), dns::RrType::kDs), 1);
  // At the TLD: DNSKEY(nl), DS(dom1.nl), and the A query.
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDnskey), 1);
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDs), 1);
  // DO bit set on every upstream query.
  for (const auto& record : net.nl_server->captured()) {
    EXPECT_TRUE(record.do_bit);
  }
}

TEST(ResolverTest, ValidatorSendsOneDsPerDomainButOneDnskeyPerZone) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.validate_dnssec = true;
  config.explicit_ds_fetch = true;
  auto resolver = MakeResolver(net, config);
  resolver.Resolve(N("www.dom1.nl"), dns::RrType::kA, 1'000'000);
  resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 2'000'000);
  resolver.Resolve(N("www.dom5.nl"), dns::RrType::kA, 3'000'000);

  // One DS per visited domain, but the TLD DNSKEY was fetched once.
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDs), 3);
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDnskey), 1);
}

TEST(ResolverTest, NonValidatorNeverSendsDsOrDo) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  resolver.Resolve(N("www.dom1.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDs), 0);
  EXPECT_EQ(CountQtype(net.nl_server->captured(), dns::RrType::kDnskey), 0);
  for (const auto& record : net.nl_server->captured()) {
    EXPECT_FALSE(record.do_bit);
  }
}

TEST(ResolverTest, SmallEdnsValidatorFallsBackToTcp) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.validate_dnssec = true;
  config.edns_udp_size = 512;
  auto resolver = MakeResolver(net, config);
  // NXDOMAIN with denial proof exceeds 512 -> TC -> TCP retry.
  auto result = resolver.Resolve(N("nosuch.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNxDomain);

  int tcp = 0, truncated_udp = 0;
  for (const auto& record : net.nl_server->captured()) {
    tcp += record.transport == dns::Transport::kTcp;
    truncated_udp +=
        record.transport == dns::Transport::kUdp && record.tc;
  }
  EXPECT_GE(tcp, 1);
  EXPECT_GE(truncated_udp, 1);
  // The TCP record carries a measured handshake RTT.
  bool saw_rtt = false;
  for (const auto& record : net.nl_server->captured()) {
    if (record.transport == dns::Transport::kTcp) {
      saw_rtt |= record.tcp_handshake_rtt_us > 0;
    }
  }
  EXPECT_TRUE(saw_rtt);
}

TEST(ResolverTest, LargeEdnsAvoidsTcp) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.validate_dnssec = true;
  config.edns_udp_size = 4096;
  auto resolver = MakeResolver(net, config);
  resolver.Resolve(N("nosuch.nl"), dns::RrType::kA, 1'000'000);
  for (const auto& record : net.nl_server->captured()) {
    EXPECT_EQ(record.transport, dns::Transport::kUdp);
    EXPECT_FALSE(record.tc);
  }
}

TEST(ResolverTest, NoEdnsConfigSendsClassicQueries) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.edns_udp_size = 0;
  auto resolver = MakeResolver(net, config);
  resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  for (const auto& record : net.nl_server->captured()) {
    EXPECT_FALSE(record.has_edns);
    EXPECT_EQ(record.edns_udp_size, 0);
  }
}

TEST(ResolverTest, V4OnlyHostNeverUsesV6) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net, /*with_v6_host=*/false));
  for (int i = 0; i < 10; ++i) {
    resolver.Resolve(N(("www.dom" + std::to_string(i) + ".nl").c_str()),
                     dns::RrType::kA, 1'000'000 * (i + 1));
  }
  for (const auto& record : net.nl_server->captured()) {
    EXPECT_TRUE(record.src.is_v4());
  }
}

TEST(ResolverTest, DualStackSplitsRoughlyEvenlyWhenRttsMatch) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net, /*with_v6_host=*/true));
  for (int i = 0; i < 40; ++i) {
    resolver.Resolve(N(("www.dom" + std::to_string(i % 50) + ".nl").c_str()),
                     dns::RrType::kA,
                     1'000'000ull * static_cast<unsigned>(i + 1));
  }
  int v4 = 0, v6 = 0;
  for (const auto& record : net.nl_server->captured()) {
    (record.src.is_v4() ? v4 : v6)++;
  }
  EXPECT_GT(v4, 0);
  EXPECT_GT(v6, 0);
}

TEST(ResolverTest, DualStackPrefersFasterFamily) {
  // Build an internet where the resolver site has a heavy v6 penalty.
  MiniInternet net;
  sim::LatencyModel latency;
  auto auth_site = latency.AddSite({"AMS", 0, 0, 1.0, 0.0});
  auto slow_v6_site = latency.AddSite({"SLOW6", 8, 0, 1.0, 60.0});
  sim::Network network(latency);
  server::AuthServerConfig server_config;
  server::AuthServer root_server(server_config);
  root_server.Serve(net.root_zone);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kRootV4),
                         auth_site, root_server);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kRootV6),
                         auth_site, root_server);
  server::AuthServer nl_server(server_config);
  nl_server.Serve(net.nl_zone);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kNlV4),
                         auth_site, nl_server);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kNlV6),
                         auth_site, nl_server);
  server::LeafAuthService leaf{server::LeafAuthConfig{}};
  network.SetDefaultRoute(auth_site, leaf);

  ResolverConfig config;
  EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.v6 = *net::IpAddress::Parse("2001:db8:10::1");
  host.site = slow_v6_site;
  config.hosts = {host};
  RecursiveResolver resolver(network, config, net.RootHintsV4(),
                             net.RootHintsV6());

  for (int i = 0; i < 200; ++i) {
    resolver.Resolve(N(("www.dom" + std::to_string(i % 50) + ".nl").c_str()),
                     dns::RrType::kA,
                     1'000'000ull * static_cast<unsigned>(i + 1));
  }
  int v4 = 0, v6 = 0;
  for (const auto& record : nl_server.captured()) {
    (record.src.is_v4() ? v4 : v6)++;
  }
  // 60ms extra one-way v6 penalty: v4 must dominate clearly.
  EXPECT_GT(v4, 3 * v6);
}

TEST(ResolverTest, GluelessCycleFailsWithoutInfiniteLoop) {
  // Hand-build a TLD zone with two mutually glueless domains.
  MiniInternet net(0);
  zone::ZoneBuildConfig config;
  config.apex = N("nz");
  config.nameservers = {
      {N("ns1.dns.nz"), {*net::IpAddress::Parse("194.0.29.53")}}};
  auto nz = zone::MakeZoneSkeleton(config);
  zone::AddDelegation(nz, N("cyca.nz"), {{N("ns.cycb.nz"), {}}}, false);
  zone::AddDelegation(nz, N("cycb.nz"), {{N("ns.cyca.nz"), {}}}, false);
  auto nz_zone = testutil::Frozen(std::move(nz));

  server::AuthServer nz_server(server::AuthServerConfig{});
  nz_server.Serve(nz_zone);
  net.network->RegisterServer(*net::IpAddress::Parse("194.0.29.53"),
                              net.auth_site, nz_server);
  // Register .nz in the root... easiest: serve a fresh root zone too.
  zone::ZoneBuildConfig root_config;
  root_config.apex = dns::Name{};
  root_config.nameservers = {
      {N("b.root-servers.net"),
       {*net::IpAddress::Parse(MiniInternet::kRootV4)}}};
  auto root = zone::MakeZoneSkeleton(root_config);
  zone::AddDelegation(root, N("nz"),
                      {{N("ns1.dns.nz"),
                        {*net::IpAddress::Parse("194.0.29.53")}}},
                      false);
  server::AuthServer root_server(server::AuthServerConfig{});
  root_server.Serve(testutil::Frozen(std::move(root)));
  sim::Network network(net.latency);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kRootV4),
                         net.auth_site, root_server);
  network.RegisterServer(*net::IpAddress::Parse("194.0.29.53"), net.auth_site,
                         nz_server);
  server::LeafAuthService leaf{server::LeafAuthConfig{}};
  network.SetDefaultRoute(net.leaf_site, leaf);

  ResolverConfig resolver_config;
  EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = net.resolver_site;
  resolver_config.hosts = {host};
  RecursiveResolver resolver(network, resolver_config, net.RootHintsV4(), {});

  auto result = resolver.Resolve(N("www.cyca.nz"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
  // The chase generated multiple A/AAAA queries at the TLD — the Fig. 3b
  // signature — but stayed within the budget.
  EXPECT_GT(nz_server.captured().size(), 2u);
  EXPECT_LE(result.upstream_queries, resolver_config.max_upstream_queries);
}

TEST(ResolverTest, GluelessChaseResolvesThroughAnotherZone) {
  // A signed .nl whose "glueless.nl" delegation names two nameservers in
  // other .nl domains, neither with glue in the .nl zone: the first
  // target's domain does not exist, the second (in signed dom1.nl)
  // resolves. With validation,
  // explicit DS fetches and q-min on, the depth-0 referral is read across
  // the DS fetch and two nested resolutions that each send queries and
  // fetch DS records of their own.
  MiniInternet net(0);
  zone::ZoneBuildConfig root_config;
  root_config.apex = dns::Name{};
  root_config.nameservers = {
      {N("b.root-servers.net"),
       {*net::IpAddress::Parse(MiniInternet::kRootV4)}}};
  auto root = zone::MakeZoneSkeleton(root_config);
  zone::AddDelegation(
      root, N("nl"),
      {{N("ns1.dns.nl"), {*net::IpAddress::Parse(MiniInternet::kNlV4)}}},
      /*with_ds=*/true);
  zone::SignZone(root);
  zone::ZoneBuildConfig nl_config;
  nl_config.apex = N("nl");
  nl_config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse(MiniInternet::kNlV4)}}};
  auto nl = zone::MakeZoneSkeleton(nl_config);
  zone::PopulateDelegations(nl, 4, "dom", 0.5,
                            net::Ipv4Address(100, 70, 0, 0));
  zone::AddDelegation(nl, N("glueless.nl"),
                      {{N("ns.aaa-missing.nl"), {}}, {N("dns.dom1.nl"), {}}},
                      /*with_ds=*/true);
  zone::SignZone(nl);

  server::AuthServer root_server(server::AuthServerConfig{});
  root_server.Serve(testutil::Frozen(std::move(root)));
  server::AuthServer nl_server(server::AuthServerConfig{});
  nl_server.Serve(testutil::Frozen(std::move(nl)));
  sim::Network network(net.latency);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kRootV4),
                         net.auth_site, root_server);
  network.RegisterServer(*net::IpAddress::Parse(MiniInternet::kNlV4),
                         net.auth_site, nl_server);
  server::LeafAuthService leaf{server::LeafAuthConfig{}};
  network.SetDefaultRoute(net.leaf_site, leaf);

  ResolverConfig config = BasicConfig(net);
  config.validate_dnssec = true;
  config.explicit_ds_fetch = true;
  config.qname_minimization = true;
  RecursiveResolver resolver(network, config, net.RootHintsV4(), {});

  auto result =
      resolver.Resolve(N("www.glueless.nl"), dns::RrType::kA, 1'000'000);
  ASSERT_EQ(result.rcode, dns::Rcode::kNoError);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(result.records[0].rdata).address,
            server::LeafAuthService::SyntheticV4(N("www.glueless.nl")));

  using Query = std::pair<dns::Name, dns::RrType>;
  std::vector<Query> at_tld;
  for (const auto& record : nl_server.captured()) {
    at_tld.emplace_back(record.qname, record.qtype);
  }
  const std::vector<Query> expected = {
      {N("nl"), dns::RrType::kDnskey},
      {N("glueless.nl"), dns::RrType::kNs},
      {N("glueless.nl"), dns::RrType::kDs},
      // The chase, in referral order: the first target's domain is
      // NXDOMAIN, the second's is walked and validated.
      {N("aaa-missing.nl"), dns::RrType::kNs},
      {N("dom1.nl"), dns::RrType::kNs},
      {N("dom1.nl"), dns::RrType::kDs},
  };
  EXPECT_EQ(at_tld, expected);

  // A sibling under the cached child goes straight to its nameserver: no
  // second chase, nothing more at the TLD.
  auto sibling =
      resolver.Resolve(N("mail.glueless.nl"), dns::RrType::kA, 2'000'000);
  EXPECT_EQ(sibling.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(sibling.upstream_queries, 1);
  EXPECT_EQ(nl_server.captured().size(), expected.size());
}

TEST(ResolverTest, AggressiveNsecAbsorbsRandomJunk) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.validate_dnssec = true;
  config.aggressive_nsec_caching = true;
  auto resolver = MakeResolver(net, config);

  // First random-TLD probe reaches the root and learns a denial range.
  auto first = resolver.Resolve(N("qwjkhzfy"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(first.rcode, dns::Rcode::kNxDomain);
  std::size_t root_after_first = net.root_server->captured().size();
  EXPECT_GE(root_after_first, 1u);

  // Subsequent junk covered by the cached NSEC range is answered locally
  // (the §4.2.3 mechanism). The root zone here has one delegation ("nl"),
  // so ranges cover almost the whole namespace.
  int absorbed = 0;
  for (int i = 0; i < 20; ++i) {
    auto probe = resolver.Resolve(
        N(("zz" + std::to_string(i) + "junk").c_str()), dns::RrType::kA,
        2'000'000 + 1000ull * static_cast<unsigned>(i));
    EXPECT_EQ(probe.rcode, dns::Rcode::kNxDomain);
    absorbed += probe.upstream_queries == 0;
  }
  EXPECT_GE(absorbed, 15);
  EXPECT_LE(net.root_server->captured().size(), root_after_first + 5);
  EXPECT_GT(resolver.nsec_cache().hits(), 10u);

  // Without the flag, every unique junk name hits the root.
  auto plain_config = BasicConfig(net);
  plain_config.validate_dnssec = true;
  auto plain = MakeResolver(net, plain_config);
  std::size_t before = net.root_server->captured().size();
  for (int i = 0; i < 10; ++i) {
    plain.Resolve(N(("yy" + std::to_string(i) + "junk").c_str()),
                  dns::RrType::kA, 3'000'000 + 1000ull * static_cast<unsigned>(i));
  }
  EXPECT_GE(net.root_server->captured().size(), before + 10);
}

TEST(ResolverTest, BudgetBoundsUpstreamQueries) {
  MiniInternet net;
  auto config = BasicConfig(net);
  config.max_upstream_queries = 2;
  auto resolver = MakeResolver(net, config);
  // Needs 3 queries; budget of 2 must produce SERVFAIL, not a hang.
  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
  EXPECT_LE(result.upstream_queries, 2);
}

}  // namespace
}  // namespace clouddns::resolver
