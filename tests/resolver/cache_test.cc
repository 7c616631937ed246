#include "resolver/cache.h"

#include <gtest/gtest.h>

#include <string>

namespace clouddns::resolver {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

CachedAnswer Answer(sim::TimeUs expires) {
  CachedAnswer answer;
  answer.rcode = dns::Rcode::kNoError;
  answer.records.push_back(
      dns::MakeA(N("x.nl"), net::Ipv4Address(1, 2, 3, 4), 300));
  answer.expires_at = expires;
  return answer;
}

TEST(DnsCacheTest, HitWithinTtlMissAfter) {
  DnsCache cache(100);
  cache.Put(N("x.nl"), dns::RrType::kA, Answer(1000));
  EXPECT_NE(cache.Get(N("x.nl"), dns::RrType::kA, 500), nullptr);
  EXPECT_EQ(cache.Get(N("x.nl"), dns::RrType::kA, 1000), nullptr);
  EXPECT_EQ(cache.Get(N("x.nl"), dns::RrType::kA, 2000), nullptr);
}

TEST(DnsCacheTest, TypeAndNameAreBothKeyed) {
  DnsCache cache(100);
  cache.Put(N("x.nl"), dns::RrType::kA, Answer(1000));
  EXPECT_EQ(cache.Get(N("x.nl"), dns::RrType::kAaaa, 1), nullptr);
  EXPECT_EQ(cache.Get(N("y.nl"), dns::RrType::kA, 1), nullptr);
}

TEST(DnsCacheTest, CaseInsensitiveKeys) {
  DnsCache cache(100);
  cache.Put(N("X.NL"), dns::RrType::kA, Answer(1000));
  EXPECT_NE(cache.Get(N("x.nl"), dns::RrType::kA, 1), nullptr);
}

TEST(DnsCacheTest, NxDomainMatchesAnyType) {
  DnsCache cache(100);
  cache.PutNxDomain(N("gone.nl"), 1000);
  EXPECT_TRUE(cache.IsNxDomain(N("gone.nl"), 500));
  EXPECT_FALSE(cache.IsNxDomain(N("gone.nl"), 1500));
  EXPECT_FALSE(cache.IsNxDomain(N("other.nl"), 500));
}

TEST(DnsCacheTest, LruEvictsOldestFirst) {
  DnsCache cache(3);
  cache.Put(N("a.nl"), dns::RrType::kA, Answer(~0ull));
  cache.Put(N("b.nl"), dns::RrType::kA, Answer(~0ull));
  cache.Put(N("c.nl"), dns::RrType::kA, Answer(~0ull));
  // Touch a.nl so b.nl becomes the LRU victim.
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1), nullptr);
  cache.Put(N("d.nl"), dns::RrType::kA, Answer(~0ull));

  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1), nullptr);
  EXPECT_EQ(cache.Get(N("b.nl"), dns::RrType::kA, 1), nullptr);
  EXPECT_NE(cache.Get(N("d.nl"), dns::RrType::kA, 1), nullptr);
}

TEST(DnsCacheTest, OverwriteRefreshesEntry) {
  DnsCache cache(10);
  cache.Put(N("a.nl"), dns::RrType::kA, Answer(100));
  cache.Put(N("a.nl"), dns::RrType::kA, Answer(5000));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1000), nullptr);
}

TEST(DnsCacheTest, TracksHitsAndMisses) {
  DnsCache cache(10);
  cache.Put(N("a.nl"), dns::RrType::kA, Answer(1000));
  (void)cache.Get(N("a.nl"), dns::RrType::kA, 1);
  (void)cache.Get(N("a.nl"), dns::RrType::kA, 1);
  (void)cache.Get(N("b.nl"), dns::RrType::kA, 1);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(InfraCacheTest, DeepestEnclosingWalksUp) {
  InfraCache infra;
  ZoneEntry root;
  root.apex = dns::Name{};
  root.expires_at = ~0ull;
  infra.Put(root);
  ZoneEntry nl;
  nl.apex = N("nl");
  nl.expires_at = ~0ull;
  infra.Put(nl);
  ZoneEntry example;
  example.apex = N("example.nl");
  example.expires_at = ~0ull;
  infra.Put(example);

  EXPECT_EQ(infra.DeepestEnclosing(N("www.example.nl"), 1)->apex,
            N("example.nl"));
  EXPECT_EQ(infra.DeepestEnclosing(N("other.nl"), 1)->apex, N("nl"));
  EXPECT_TRUE(infra.DeepestEnclosing(N("example.com"), 1)->apex.IsRoot());
}

TEST(InfraCacheTest, ExpiredEntriesAreDropped) {
  InfraCache infra;
  ZoneEntry nl;
  nl.apex = N("nl");
  nl.expires_at = 100;
  infra.Put(nl);
  EXPECT_NE(infra.Get(N("nl"), 50), nullptr);
  EXPECT_EQ(infra.Get(N("nl"), 100), nullptr);
  EXPECT_EQ(infra.size(), 0u);  // erased on expiry
}

TEST(InfraCacheTest, PutOverwritesByApex) {
  InfraCache infra;
  ZoneEntry nl;
  nl.apex = N("nl");
  nl.expires_at = ~0ull;
  nl.ds = ZoneEntry::Ds::kAbsent;
  infra.Put(nl);
  nl.ds = ZoneEntry::Ds::kPresent;
  infra.Put(nl);
  EXPECT_EQ(infra.size(), 1u);
  EXPECT_EQ(infra.Get(N("nl"), 1)->ds, ZoneEntry::Ds::kPresent);
}

TEST(InfraCacheTest, RecycledSlotCarriesNoStaleState) {
  InfraCache infra;
  ZoneEntry old;
  old.apex = N("old.nl");
  old.addresses = {*net::IpAddress::Parse("192.0.2.1"),
                   *net::IpAddress::Parse("192.0.2.2"),
                   *net::IpAddress::Parse("192.0.2.3"),
                   *net::IpAddress::Parse("2001:db8::1"),
                   *net::IpAddress::Parse("2001:db8::2"),
                   *net::IpAddress::Parse("2001:db8::3")};
  old.v4_count = 3;
  old.expires_at = 100;
  old.ds = ZoneEntry::Ds::kPresent;
  old.dnskey_expires_at = 90;
  const ZoneEntry* old_slot = &infra.Put(old);
  EXPECT_EQ(infra.Get(N("old.nl"), 100), nullptr);  // expires, frees slot

  ZoneEntry fresh;
  fresh.apex = N("fresh.nl");
  fresh.addresses = {*net::IpAddress::Parse("198.51.100.7")};
  fresh.v4_count = 1;
  fresh.expires_at = 500;
  const ZoneEntry& stored = infra.Put(fresh);
  EXPECT_EQ(&stored, old_slot);  // the freed slot is reused
  EXPECT_EQ(infra.size(), 1u);

  const ZoneEntry* got = infra.Get(N("fresh.nl"), 200);
  ASSERT_EQ(got, &stored);
  EXPECT_EQ(got->apex, N("fresh.nl"));
  EXPECT_EQ(got->addresses, fresh.addresses);
  EXPECT_EQ(got->v4_count, 1u);
  ASSERT_EQ(got->v4().size(), 1u);
  EXPECT_EQ(got->v4()[0], *net::IpAddress::Parse("198.51.100.7"));
  EXPECT_TRUE(got->v6().empty());
  EXPECT_EQ(got->expires_at, 500u);
  EXPECT_EQ(got->ds, ZoneEntry::Ds::kUnknown);
  EXPECT_EQ(got->dnskey_expires_at, 0u);
  EXPECT_EQ(infra.Get(N("old.nl"), 50), nullptr);
}

TEST(InfraCacheTest, SlotsStayPutAcrossChunks) {
  InfraCache infra;
  ZoneEntry zone;
  zone.expires_at = ~0ull;
  zone.apex = N("first.nl");
  const ZoneEntry* first = &infra.Put(zone);
  for (int i = 0; i < 200; ++i) {
    zone.apex = N(("z" + std::to_string(i) + ".nl").c_str());
    infra.Put(zone);
  }
  EXPECT_EQ(infra.size(), 201u);
  EXPECT_EQ(infra.Get(N("first.nl"), 1), first);
  EXPECT_EQ(infra.Get(N("z199.nl"), 1)->apex, N("z199.nl"));
}


TEST(DnsCacheTest, LruEvictionOrderIsExactUnderMixedTouches) {
  DnsCache cache(4);
  cache.Put(N("a.nl"), dns::RrType::kA, Answer(~0ull));
  cache.Put(N("b.nl"), dns::RrType::kA, Answer(~0ull));
  cache.Put(N("c.nl"), dns::RrType::kA, Answer(~0ull));
  cache.Put(N("d.nl"), dns::RrType::kA, Answer(~0ull));
  // Recency after touches: a > c > d > b (b is the victim, then d).
  EXPECT_NE(cache.Get(N("c.nl"), dns::RrType::kA, 1), nullptr);
  EXPECT_NE(cache.Get(N("a.nl"), dns::RrType::kA, 1), nullptr);

  cache.Put(N("e.nl"), dns::RrType::kA, Answer(~0ull));
  EXPECT_EQ(cache.Get(N("b.nl"), dns::RrType::kA, 1), nullptr);
  cache.Put(N("f.nl"), dns::RrType::kA, Answer(~0ull));
  EXPECT_EQ(cache.Get(N("d.nl"), dns::RrType::kA, 1), nullptr);

  EXPECT_EQ(cache.size(), 4u);
  for (const char* alive : {"a.nl", "c.nl", "e.nl", "f.nl"}) {
    EXPECT_NE(cache.Get(N(alive), dns::RrType::kA, 1), nullptr) << alive;
  }
}

}  // namespace
}  // namespace clouddns::resolver
