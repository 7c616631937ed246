#include "net/prefix_trie.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace clouddns::net {
namespace {

TEST(PrefixTrieTest, EmptyTrieMatchesNothing) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.Lookup(*IpAddress::Parse("1.2.3.4")).has_value());
}

TEST(PrefixTrieTest, LongestPrefixWins) {
  PrefixTrie<int> trie;
  trie.Insert(*Prefix::Parse("10.0.0.0/8"), 8);
  trie.Insert(*Prefix::Parse("10.1.0.0/16"), 16);
  trie.Insert(*Prefix::Parse("10.1.2.0/24"), 24);

  EXPECT_EQ(trie.Lookup(*IpAddress::Parse("10.1.2.3")), 24);
  EXPECT_EQ(trie.Lookup(*IpAddress::Parse("10.1.9.9")), 16);
  EXPECT_EQ(trie.Lookup(*IpAddress::Parse("10.9.9.9")), 8);
  EXPECT_FALSE(trie.Lookup(*IpAddress::Parse("11.0.0.1")).has_value());
}

TEST(PrefixTrieTest, DefaultRouteMatchesAll) {
  PrefixTrie<int> trie;
  trie.Insert(*Prefix::Parse("0.0.0.0/0"), 1);
  EXPECT_EQ(trie.Lookup(*IpAddress::Parse("203.0.113.9")), 1);
}

TEST(PrefixTrieTest, InsertOverwritesSamePrefix) {
  PrefixTrie<int> trie;
  trie.Insert(*Prefix::Parse("10.0.0.0/8"), 1);
  trie.Insert(*Prefix::Parse("10.0.0.0/8"), 2);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Lookup(*IpAddress::Parse("10.0.0.1")), 2);
}

TEST(PrefixTrieTest, HostRoutes) {
  PrefixTrie<int> trie;
  trie.Insert(*Prefix::Parse("192.0.2.1/32"), 1);
  EXPECT_EQ(trie.Lookup(*IpAddress::Parse("192.0.2.1")), 1);
  EXPECT_FALSE(trie.Lookup(*IpAddress::Parse("192.0.2.2")).has_value());
}

TEST(PrefixMapTest, KeepsFamiliesSeparate) {
  PrefixMap<int> map;
  map.Insert(*Prefix::Parse("0.0.0.0/0"), 4);
  map.Insert(*Prefix::Parse("::/0"), 6);
  EXPECT_EQ(map.Lookup(*IpAddress::Parse("1.2.3.4")), 4);
  EXPECT_EQ(map.Lookup(*IpAddress::Parse("2001:db8::1")), 6);
  EXPECT_EQ(map.size(), 2u);
}

TEST(PrefixMapTest, V6LongestPrefix) {
  PrefixMap<int> map;
  map.Insert(*Prefix::Parse("2001:db8::/32"), 32);
  map.Insert(*Prefix::Parse("2001:db8:1::/48"), 48);
  EXPECT_EQ(map.Lookup(*IpAddress::Parse("2001:db8:1::5")), 48);
  EXPECT_EQ(map.Lookup(*IpAddress::Parse("2001:db8:2::5")), 32);
  EXPECT_FALSE(map.Lookup(*IpAddress::Parse("2001:db9::1")).has_value());
}

// Property test: the trie must agree with a brute-force linear scan over
// random prefix sets and random probe addresses.
TEST(PrefixTrieTest, AgreesWithLinearScanOnRandomInput) {
  std::mt19937_64 rng(20201027);
  for (int round = 0; round < 20; ++round) {
    PrefixTrie<int> trie;
    std::vector<std::pair<Prefix, int>> prefixes;
    for (int i = 0; i < 100; ++i) {
      Ipv4Address addr(static_cast<std::uint32_t>(rng()));
      int len = static_cast<int>(rng() % 33);
      Prefix prefix(IpAddress(addr), len);
      // Mirror trie semantics: a re-inserted prefix overwrites.
      bool replaced = false;
      for (auto& [p, v] : prefixes) {
        if (p == prefix) {
          v = i;
          replaced = true;
          break;
        }
      }
      if (!replaced) prefixes.emplace_back(prefix, i);
      trie.Insert(prefix, i);
    }
    ASSERT_EQ(trie.size(), prefixes.size());

    for (int probe = 0; probe < 200; ++probe) {
      IpAddress addr{Ipv4Address(static_cast<std::uint32_t>(rng()))};
      std::optional<int> expected;
      int best_len = -1;
      for (const auto& [prefix, value] : prefixes) {
        if (prefix.length() > best_len && prefix.Contains(addr)) {
          best_len = prefix.length();
          expected = value;
        }
      }
      EXPECT_EQ(trie.Lookup(addr), expected) << addr.ToString();
    }
  }
}

}  // namespace
}  // namespace clouddns::net
