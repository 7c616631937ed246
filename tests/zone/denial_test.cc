// Tests for the range-denial machinery: Zone::DenialNeighbors and the
// resolver-side NsecRangeCache (RFC 8198 aggressive use).
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "resolver/cache.h"
#include "zone/zone.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

Zone MakeRootLike(std::initializer_list<const char*> tlds = {"aaa", "mmm",
                                                              "zzz"}) {
  ZoneBuildConfig config;
  config.apex = dns::Name{};
  config.nameservers = {
      {N("a.root-servers.example"), {*net::IpAddress::Parse("198.41.0.4")}}};
  Zone zone = MakeZoneSkeleton(config);
  for (const char* tld : tlds) {
    AddDelegation(zone, N(tld),
                  {{N((std::string("ns1.nic.") + tld).c_str()),
                    {*net::IpAddress::Parse("100.80.0.1")}}},
                  false);
  }
  zone.Freeze();
  return zone;
}

TEST(DenialNeighborsTest, BracketsNonexistentName) {
  Zone zone = MakeRootLike();
  // Canonical order around "ccc": ... aaa < nic.aaa < ns1.nic.aaa < ccc <
  // example (the root-server glue's TLD) < ... — NSEC neighbours are the
  // closest *existing* names, glue and empty non-terminals included.
  auto range = zone.DenialNeighbors(N("ccc"));
  EXPECT_EQ(range.prev, N("ns1.nic.aaa"));
  EXPECT_EQ(range.next, N("example"));
  // The range proves exactly the gap: ccc is inside, aaa is not.
  EXPECT_LT(range.prev.Compare(N("ccc")), 0);
  EXPECT_GT(range.next.Compare(N("ccc")), 0);
}

TEST(DenialNeighborsTest, WrapsPastLastName) {
  Zone zone = MakeRootLike();
  auto range = zone.DenialNeighbors(N("zzzz"));
  // Past the canonically greatest name the range wraps to the apex.
  EXPECT_EQ(range.next, dns::Name{});
}

TEST(DenialNeighborsTest, UpdatesAfterAdd) {
  const Zone zone = MakeRootLike();
  EXPECT_EQ(zone.DenialNeighbors(N("ccc")).next, N("example"));
  // A zone built with one more delegation sees it in its neighbours.
  const Zone grown = MakeRootLike({"aaa", "mmm", "zzz", "ddd"});
  EXPECT_EQ(grown.DenialNeighbors(N("ccc")).next, N("ddd"));
}

TEST(NsecRangeCacheTest, CoversStrictlyInsideRange) {
  resolver::NsecRangeCache cache;
  cache.Put(dns::Name{}, {N("aaa"), N("mmm"), 1000});
  EXPECT_TRUE(cache.Covers(dns::Name{}, N("ccc"), 1));
  EXPECT_TRUE(cache.Covers(dns::Name{}, N("lzz"), 1));
  // Endpoints exist and are never covered.
  EXPECT_FALSE(cache.Covers(dns::Name{}, N("aaa"), 1));
  EXPECT_FALSE(cache.Covers(dns::Name{}, N("mmm"), 1));
  // Outside the range.
  EXPECT_FALSE(cache.Covers(dns::Name{}, N("zzz"), 1));
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(NsecRangeCacheTest, WrappingRangeCoversTail) {
  resolver::NsecRangeCache cache;
  cache.Put(dns::Name{}, {N("zzz"), dns::Name{}, 1000});  // next == apex
  EXPECT_TRUE(cache.Covers(dns::Name{}, N("zzzz"), 1));
  EXPECT_FALSE(cache.Covers(dns::Name{}, N("yyy"), 1));
}

TEST(NsecRangeCacheTest, ExpiryEvicts) {
  resolver::NsecRangeCache cache;
  cache.Put(dns::Name{}, {N("aaa"), N("mmm"), 1000});
  EXPECT_TRUE(cache.Covers(dns::Name{}, N("ccc"), 999));
  EXPECT_FALSE(cache.Covers(dns::Name{}, N("ccc"), 1000));
  EXPECT_EQ(cache.size(), 0u);  // erased lazily on the expired probe
}

TEST(NsecRangeCacheTest, ZonesAreIndependent) {
  resolver::NsecRangeCache cache;
  cache.Put(N("nl"), {N("dom1.nl"), N("dom3.nl"), 1000});
  EXPECT_TRUE(cache.Covers(N("nl"), N("dom2.nl"), 1));
  EXPECT_FALSE(cache.Covers(N("nz"), N("dom2.nl"), 1));
  EXPECT_FALSE(cache.Covers(dns::Name{}, N("dom2.nl"), 1));
}

TEST(NsecRangeCacheTest, SubdomainsOfCoveredNameAreCovered) {
  // The range (dom1.nl, dom3.nl) proves dom2.nl and everything under it.
  resolver::NsecRangeCache cache;
  cache.Put(N("nl"), {N("dom1.nl"), N("dom3.nl"), 1000});
  EXPECT_TRUE(cache.Covers(N("nl"), N("www.dom2.nl"), 1));
  EXPECT_FALSE(cache.Covers(N("nl"), N("www.dom3.nl"), 1));
}

TEST(NsecRangeCacheTest, PicksCorrectRangeAmongMany) {
  resolver::NsecRangeCache cache;
  cache.Put(N("nl"), {N("dom1.nl"), N("dom3.nl"), 1000});
  cache.Put(N("nl"), {N("dom5.nl"), N("dom7.nl"), 1000});
  cache.Put(N("nl"), {N("dom9.nl"), N("nl"), 1000});  // wrap
  EXPECT_TRUE(cache.Covers(N("nl"), N("dom2.nl"), 1));
  EXPECT_FALSE(cache.Covers(N("nl"), N("dom4.nl"), 1));
  EXPECT_TRUE(cache.Covers(N("nl"), N("dom6.nl"), 1));
  EXPECT_FALSE(cache.Covers(N("nl"), N("dom8.nl"), 1));
  EXPECT_TRUE(cache.Covers(N("nl"), N("domx.nl"), 1));
  EXPECT_EQ(cache.size(), 3u);
}

}  // namespace
}  // namespace clouddns::zone
