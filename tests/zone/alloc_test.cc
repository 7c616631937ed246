// Allocation count of building and signing a zone image. bench/common.h
// replaces the global operator new with a counting one, so this binary
// holds only tests that count allocations.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "../../bench/common.h"
#include "base/threads.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

/// Allocations of building and signing one .nl image at the 2020 scale
/// of the cold datasets (skeleton, 11800 delegations filled on `threads`
/// workers, then SignZone: 105,612 records); sets `records`.
std::uint64_t BuildAndSignAllocs(std::size_t threads, std::size_t& records) {
  const std::uint64_t before = bench::AllocCount();
  ZoneBuildConfig config;
  config.apex = *dns::Name::Parse("nl");
  config.nameservers = {{*dns::Name::Parse("ns1.dns.nl"),
                         {*net::IpAddress::Parse("194.0.28.1")}}};
  Zone nl = MakeZoneSkeleton(config);
  PopulateDelegations(nl, 11800, "dom", 0.55, net::Ipv4Address(100, 70, 0, 0),
                      /*ttl=*/86400, threads);
  SignZone(nl);
  const std::uint64_t allocs = bench::AllocCount() - before;
  records = nl.record_count();
  return allocs;
}

TEST(ZoneAllocTest, BuildAndSignAllocateAFractionPerRecord) {
  // Sanitizer runtimes interpose the allocator; there nothing is counted.
  if (!CLOUDDNS_BENCH_COUNT_ALLOCS) GTEST_SKIP() << "allocator not counted";
  // Start the pool's helpers first, so their start-up is not counted.
  base::ThreadPool::Shared().ParallelFor(4, 4, [](std::size_t) {});
  std::size_t records = 0;
  const std::uint64_t allocs = BuildAndSignAllocs(4, records);
  ASSERT_GT(records, 100'000u);
  // The record log is reserved from the counts the builders know, so a
  // record costs a small fraction of an allocation (0.062: 6,541 at
  // 105,612 records, nearly all the DS digest vectors); one allocation per
  // delegation would add 0.11.
  EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(records), 0.1)
      << allocs << " allocations for " << records << " records";
  // The fill's chunks are fixed, so the worker count allocates nothing.
  EXPECT_EQ(BuildAndSignAllocs(1, records), allocs);
}

}  // namespace
}  // namespace clouddns::zone
