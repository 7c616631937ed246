// Resolver timeout/retry/backoff engine under fault injection: retransmit
// accounting, Karn backoff against the query budget, and NS-set failover.
#include <gtest/gtest.h>

#include "../testutil.h"
#include "resolver/resolver.h"
#include "sim/fault.h"

namespace clouddns::resolver {
namespace {

using testutil::MiniInternet;
using testutil::N;

ResolverConfig BasicConfig(const MiniInternet& net) {
  ResolverConfig config;
  EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = net.resolver_site;
  config.hosts = {host};
  return config;
}

RecursiveResolver MakeResolver(MiniInternet& net, ResolverConfig config) {
  return RecursiveResolver(*net.network, std::move(config), net.RootHintsV4(),
                           net.RootHintsV6());
}

sim::FaultPlan TotalUdpLoss() {
  sim::FaultPlan plan;
  plan.loss.push_back({sim::kAnySite, dns::Transport::kUdp, {}, 1.0, 0.0});
  return plan;
}

TEST(RetryTest, NoFaultsMeansNoRetryActivity) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);
  EXPECT_EQ(result.upstream_queries, 3);
  EXPECT_EQ(result.retransmits, 0);
  EXPECT_EQ(result.timeouts, 0);
  EXPECT_EQ(result.failovers, 0);
  EXPECT_EQ(resolver.retransmit_count(), 0u);
  EXPECT_EQ(resolver.timeout_count(), 0u);
}

TEST(RetryTest, TotalLossExhaustsRetransmitsThenServfails) {
  MiniInternet net;
  sim::FaultInjector injector(TotalUdpLoss(), 42);
  net.network->SetFaultInjector(&injector);
  auto resolver = MakeResolver(net, BasicConfig(net));

  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
  // One root server address: initial send + 2 retransmits, every attempt
  // times out, and with no sibling to fail over to the resolution dies.
  EXPECT_EQ(result.upstream_queries, 3);
  EXPECT_EQ(result.retransmits, 2);
  EXPECT_EQ(result.timeouts, 3);
  EXPECT_EQ(result.failovers, 0);
  EXPECT_EQ(net.root_server->captured().size(), 0u);  // queries never arrived
}

TEST(RetryTest, WindowedLossRecoversViaRetransmit) {
  MiniInternet net;
  // Loss ends at t=500ms; the first attempt (t=1ms) is lost, the
  // retransmit fires after the ~1s initial RTO, outside the window.
  sim::FaultPlan plan;
  plan.loss.push_back(
      {sim::kAnySite, dns::Transport::kUdp, {0, 500'000}, 1.0, 0.0});
  sim::FaultInjector injector(plan, 42);
  net.network->SetFaultInjector(&injector);
  auto resolver = MakeResolver(net, BasicConfig(net));

  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kNoError);
  EXPECT_GE(result.retransmits, 1);
  EXPECT_EQ(result.retransmits, result.timeouts);
  EXPECT_EQ(result.failovers, 0);
  // Retried exchanges reach the servers later than the original send time:
  // the capture shows the retry wave, not the lost originals.
  ASSERT_FALSE(net.root_server->captured().empty());
  EXPECT_GT(net.root_server->captured().front().time_us, 500'000u);
}

TEST(RetryTest, FailoverMovesToHealthySibling) {
  MiniInternet net;
  // A second root-server address, served from a separate site. Loss is
  // scoped to the primary's site, so the sibling stays healthy and
  // failover can rescue every resolution.
  sim::SiteId alt_site = net.latency.AddSite({"ALT", 12, 0, 1.0, 0.0});
  auto alt_root = *net::IpAddress::Parse("199.9.15.201");
  net.network->RegisterServer(alt_root, alt_site, *net.root_server);
  sim::FaultPlan plan;
  plan.loss.push_back(
      {net.auth_site, dns::Transport::kUdp, {}, 1.0, 0.0});
  sim::FaultInjector injector(plan, 42);
  net.network->SetFaultInjector(&injector);

  auto config = BasicConfig(net);
  RecursiveResolver resolver(*net.network, config,
                             {*net::IpAddress::Parse(MiniInternet::kRootV4),
                              alt_root},
                             {});

  // Nonexistent TLDs are answered (NXDOMAIN) by the root alone, so every
  // resolution exercises only the faulty/healthy root pair.
  for (int i = 0; i < 20; ++i) {
    auto result = resolver.Resolve(N(("junk" + std::to_string(i)).c_str()),
                                   dns::RrType::kA, 1'000'000 + i * 1'000);
    EXPECT_EQ(result.rcode, dns::Rcode::kNxDomain) << "query " << i;
  }
  // The first pick of the lossy address exhausts its retransmits, fails
  // over, and the SRTT penalty steers later picks to the healthy sibling.
  EXPECT_GE(resolver.failover_count(), 1u);
  EXPECT_GE(resolver.timeout_count(), 3u);
}

TEST(RetryTest, WithoutServeStaleExpiredFailureIsServfail) {
  MiniInternet net;
  auto resolver = MakeResolver(net, BasicConfig(net));
  const sim::TimeUs t0 = 1'000'000;
  ASSERT_EQ(resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, t0).rcode,
            dns::Rcode::kNoError);

  sim::FaultInjector injector(TotalUdpLoss(), 42);
  net.network->SetFaultInjector(&injector);
  const sim::TimeUs t1 = t0 + 2ull * sim::kMicrosPerDay;
  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, t1);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
}

TEST(RetryTest, RetransmitsChargeTheUpstreamBudget) {
  MiniInternet net;
  sim::FaultInjector injector(TotalUdpLoss(), 42);
  net.network->SetFaultInjector(&injector);
  auto config = BasicConfig(net);
  config.max_upstream_queries = 5;
  config.retry.max_retransmits = 10;
  config.retry.max_failovers = 10;
  auto resolver = MakeResolver(net, config);

  auto result = resolver.Resolve(N("www.dom3.nl"), dns::RrType::kA, 1'000'000);
  EXPECT_EQ(result.rcode, dns::Rcode::kServFail);
  // The generous retransmit allowance is still capped by the per-query
  // budget: 5 sends total (1 original + 4 retransmits), not 11.
  EXPECT_EQ(result.upstream_queries, 5);
  EXPECT_EQ(result.retransmits, 4);
  EXPECT_EQ(result.timeouts, 5);
}

}  // namespace
}  // namespace clouddns::resolver
