#include "resolver/cache.h"

#include <gtest/gtest.h>

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
