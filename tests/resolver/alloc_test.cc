// Allocation counts of the resolver's per-query path. bench/common.h
// replaces the global operator new with a counting one, so this binary
// holds only tests that count allocations.
#include <gtest/gtest.h>

#include <cstdint>

#include "../../bench/common.h"
#include "../testutil.h"
#include "resolver/resolver.h"

namespace clouddns::resolver {
namespace {

using testutil::MiniInternet;
using testutil::N;

RecursiveResolver MakeResolver(MiniInternet& net) {
  ResolverConfig config;
  EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = net.resolver_site;
  config.hosts = {host};
  return RecursiveResolver(*net.network, std::move(config),
                           net.RootHintsV4(), net.RootHintsV6());
}

TEST(ResolverAllocTest, CacheHitAllocatesNothing) {
  // Sanitizer runtimes interpose the allocator; there nothing is counted.
  if (!CLOUDDNS_BENCH_COUNT_ALLOCS) GTEST_SKIP() << "allocator not counted";
  MiniInternet net;
  auto resolver = MakeResolver(net);
  const dns::Name qname = N("www.dom3.nl");
  ASSERT_EQ(resolver.Resolve(qname, dns::RrType::kA, 1'000'000).rcode,
            dns::Rcode::kNoError);

  const std::uint64_t before = bench::AllocCount();
  const auto hit = resolver.Resolve(qname, dns::RrType::kA, 2'000'000);
  const std::uint64_t allocs = bench::AllocCount() - before;
  EXPECT_TRUE(hit.from_cache);
  EXPECT_FALSE(hit.records.empty());
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace clouddns::resolver
