// Allocation count of building and signing a zone image. bench/common.h
// replaces the global operator new with a counting one, so this binary
// holds only tests that count allocations.
#include <gtest/gtest.h>

#include <cstdint>

#include "../../bench/common.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

TEST(ZoneAllocTest, BuildAndSignAllocateAFractionPerRecord) {
  // Sanitizer runtimes interpose the allocator; there nothing is counted.
  if (!CLOUDDNS_BENCH_COUNT_ALLOCS) GTEST_SKIP() << "allocator not counted";
  // One signed ccTLD image at the .nl 2020 scale of the cold datasets:
  // skeleton, 11800 delegations, then SignZone (about 105,600 records).
  const std::uint64_t before = bench::AllocCount();
  ZoneBuildConfig config;
  config.apex = *dns::Name::Parse("nl");
  config.nameservers = {{*dns::Name::Parse("ns1.dns.nl"),
                         {*net::IpAddress::Parse("194.0.28.1")}}};
  Zone nl = MakeZoneSkeleton(config);
  PopulateDelegations(nl, 11800, "dom", 0.55, net::Ipv4Address(100, 70, 0, 0));
  SignZone(nl);
  const std::uint64_t allocs = bench::AllocCount() - before;

  const std::size_t records = nl.record_count();
  ASSERT_GT(records, 100'000u);
  // The record log and its indexes are reserved from the counts the
  // builders know, so a record costs a small fraction of an allocation
  // (0.062 at 105,612 records); one allocation per delegation adds 0.11.
  EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(records), 0.1)
      << allocs << " allocations for " << records << " records";
}

}  // namespace
}  // namespace clouddns::zone
