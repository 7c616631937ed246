// Field-by-field comparison of two ScenarioResults' context: every field
// cloud::BuildScenarioContext fills, with the AS database and Google's
// ranges compared through the lookups the analyses make.
#pragma once

#include <gtest/gtest.h>

#include "cloud/scenario.h"

namespace clouddns::testutil {

/// Origin AS, its org and the Google public-range flag of `address`.
inline std::string Enrichment(const cloud::ScenarioResult& result,
                              const net::IpAddress& address) {
  const std::optional<net::Asn> asn = result.asdb.OriginAs(address);
  const net::AsInfo* info = asn ? result.asdb.Info(*asn) : nullptr;
  return (asn ? std::to_string(*asn) : "-") + " " +
         (info ? info->org : "-") + " " +
         (result.google_public.Lookup(address) ? "google" : "-");
}

/// Expects `actual` to hold `expected`'s window, zone counts, server
/// table and PTR records (in order), and to enrich every PTR address (each
/// resolver frontend, so each capture source) the same way.
inline void ExpectSameContext(const cloud::ScenarioResult& actual,
                              const cloud::ScenarioResult& expected) {
  EXPECT_EQ(actual.window_start, expected.window_start);
  EXPECT_EQ(actual.window_end, expected.window_end);
  EXPECT_EQ(actual.zone_domain_count, expected.zone_domain_count);
  EXPECT_EQ(actual.zone_domains_by_tld, expected.zone_domains_by_tld);
  EXPECT_TRUE(actual.servers == expected.servers);
  EXPECT_EQ(actual.asdb.as_count(), expected.asdb.as_count());
  EXPECT_EQ(actual.google_public.size(), expected.google_public.size());

  ASSERT_EQ(actual.ptr_records.size(), expected.ptr_records.size());
  for (std::size_t i = 0; i < actual.ptr_records.size(); ++i) {
    const net::IpAddress& address = expected.ptr_records[i].first;
    EXPECT_EQ(actual.ptr_records[i].first, address);
    EXPECT_TRUE(actual.ptr_records[i].second.Equals(
        expected.ptr_records[i].second))
        << actual.ptr_records[i].second.ToString();
    EXPECT_EQ(Enrichment(actual, address), Enrichment(expected, address))
        << address.ToString();
  }
}

}  // namespace clouddns::testutil
