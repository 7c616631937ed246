// The hash primitives against published reference values, and the tree's
// outputs built on them pinned bit for bit: names and addresses hash from
// the short FNV basis, and the dataset cache key folds its fields with
// HashCombine.
#include "base/hash.h"

#include <gtest/gtest.h>

#include "analysis/dataset_cache.h"
#include "analysis/paper_reports.h"
#include "dns/name.h"
#include "net/ip.h"

namespace clouddns::base {
namespace {

TEST(HashTest, Fnv1aMatchesThePublishedVectors) {
  EXPECT_EQ(Fnv1a("", kFnvOffsetBasis), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a("a", kFnvOffsetBasis), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar", kFnvOffsetBasis), 0x85944171f73967e8ull);
}

TEST(HashTest, Fnv1aIsTheStepFoldedOverTheBytesAndContinuesFromASeed) {
  EXPECT_EQ(Fnv1a("ab", kShortFnvBasis),
            Fnv1aStep(Fnv1aStep(kShortFnvBasis, 'a'), 'b'));
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo", kFnvOffsetBasis)),
            Fnv1a("foobar", kFnvOffsetBasis));
}

TEST(HashTest, ShortBasisIsThePublishedBasisWithItsLastDigitDropped) {
  static_assert(kFnvOffsetBasis == 14695981039346656037ull);
  static_assert(kShortFnvBasis == kFnvOffsetBasis / 10);
  EXPECT_NE(kShortFnvBasis, kFnvOffsetBasis);
}

TEST(HashTest, Mix64GivesTheSplitMix64ReferenceOutputs) {
  // SplitMix64 from state 0: each output is the finalizer of the state
  // advanced by the golden gamma.
  EXPECT_EQ(Mix64(kGoldenGamma), 0xe220a8397b1dcdafull);
  EXPECT_EQ(Mix64(2 * kGoldenGamma), 0x6e789e6aa1b965f4ull);
}

TEST(HashTest, HashCombineIsTheBoostStep) {
  EXPECT_EQ(HashCombine(0, 0), kGoldenGamma);
  EXPECT_EQ(HashCombine(0x434c4f5544444e53ull, 14), 0xc1522d8aa52b6a24ull);
}

TEST(HashTest, NameHashesStartFromTheShortBasis) {
  // The root's flat form is empty, so its hash is the basis itself.
  EXPECT_EQ(dns::Name().CachedHash(), kShortFnvBasis);
  EXPECT_EQ(dns::Name().CachedHash(), 0x14650fb0739d0383ull);
  const dns::Name name = *dns::Name::Parse("WWW.Example.NL");
  EXPECT_EQ(name.CachedHash(), 0xe7695537f1240d72ull);
  EXPECT_EQ(dns::Name::Parse("nl")->CachedHash(), 0x98806f4f313c43d1ull);
  EXPECT_EQ(name.PresentationHash(), 0xbf7df78b0c312f1eull);
  EXPECT_EQ(name.PresentationHash(), Fnv1a("www.example.nl", kShortFnvBasis));
}

TEST(HashTest, AddressHashStartsFromTheShortBasis) {
  const net::IpAddressHash hash;
  EXPECT_EQ(hash(*net::IpAddress::Parse("192.0.2.1")), 0xa5d28f84484c2c14ull);
  EXPECT_EQ(hash(*net::IpAddress::Parse("2001:db8::1")),
            0x370a3697f152e166ull);
}

TEST(HashTest, DatasetCacheKeyIsPinned) {
  EXPECT_EQ(analysis::CacheKey(
                analysis::StandardConfig(cloud::Vantage::kNl, 2020)),
            "nl_2020_50975158e35a4bb3");
}

}  // namespace
}  // namespace clouddns::base
