#include "dns/name.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "dns/message.h"

namespace clouddns::dns {
namespace {

TEST(NameTest, ParsesSimpleName) {
  auto name = Name::Parse("www.example.nl");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->LabelCount(), 3u);
  EXPECT_EQ(name->Label(0), "www");
  EXPECT_EQ(name->Label(2), "nl");
  EXPECT_EQ(name->ToString(), "www.example.nl");
}

TEST(NameTest, TrailingDotIsAbsorbed) {
  EXPECT_EQ(*Name::Parse("example.nz."), *Name::Parse("example.nz"));
}

TEST(NameTest, RootName) {
  auto root = Name::Parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->IsRoot());
  EXPECT_EQ(root->LabelCount(), 0u);
  EXPECT_EQ(root->ToString(), ".");
  EXPECT_EQ(root->WireLength(), 1u);
}

TEST(NameTest, RejectsBadNames) {
  EXPECT_FALSE(Name::Parse("").has_value());
  EXPECT_FALSE(Name::Parse("..").has_value());
  EXPECT_FALSE(Name::Parse("a..b").has_value());
  EXPECT_FALSE(Name::Parse(".leading").has_value());
  EXPECT_FALSE(Name::Parse("sp ace.nl").has_value());
  EXPECT_FALSE(Name::Parse(std::string(64, 'a') + ".nl").has_value());
}

TEST(NameTest, RejectsOverlongName) {
  // Four 63-byte labels = 4*64+1 = 257 wire bytes > 255.
  std::string label(63, 'x');
  std::string too_long = label + "." + label + "." + label + "." + label;
  EXPECT_FALSE(Name::Parse(too_long).has_value());
  // Three fit (3*64 + 1 = 193).
  EXPECT_TRUE(Name::Parse(label + "." + label + "." + label).has_value());
}

TEST(NameTest, WireLength) {
  EXPECT_EQ(Name::Parse("nl")->WireLength(), 4u);            // 1+2+1
  EXPECT_EQ(Name::Parse("example.nl")->WireLength(), 12u);   // 1+7+1+2+1
}

TEST(NameTest, CaseInsensitiveEquality) {
  EXPECT_EQ(*Name::Parse("WWW.Example.NL"), *Name::Parse("www.example.nl"));
  NameHash hash;
  EXPECT_EQ(hash(*Name::Parse("WWW.Example.NL")),
            hash(*Name::Parse("www.example.nl")));
}

TEST(NameTest, PreservesOriginalCase) {
  EXPECT_EQ(Name::Parse("ExAmPlE.Nl")->ToString(), "ExAmPlE.Nl");
  EXPECT_EQ(Name::Parse("ExAmPlE.Nl")->ToKey(), "example.nl");
}

TEST(NameTest, ParentChainEndsAtRoot) {
  Name name = *Name::Parse("a.b.c");
  EXPECT_EQ(name.Parent().ToString(), "b.c");
  EXPECT_EQ(name.Parent().Parent().ToString(), "c");
  EXPECT_TRUE(name.Parent().Parent().Parent().IsRoot());
  EXPECT_TRUE(Name{}.Parent().IsRoot());
}

TEST(NameTest, Suffix) {
  Name name = *Name::Parse("a.b.c.d");
  EXPECT_EQ(name.Suffix(2).ToString(), "c.d");
  EXPECT_EQ(name.Suffix(0).ToString(), ".");
  EXPECT_EQ(name.Suffix(4), name);
  EXPECT_EQ(name.Suffix(9), name);
}

TEST(NameTest, Child) {
  Name nl = *Name::Parse("nl");
  EXPECT_EQ(nl.Child("example").ToString(), "example.nl");
  EXPECT_EQ(Name{}.Child("nz").ToString(), "nz");
  EXPECT_THROW(nl.Child(""), std::invalid_argument);
  EXPECT_THROW(nl.Child(std::string(64, 'a')), std::invalid_argument);
}

TEST(NameTest, IsSubdomainOf) {
  Name zone = *Name::Parse("example.nl");
  EXPECT_TRUE(Name::Parse("www.example.nl")->IsSubdomainOf(zone));
  EXPECT_TRUE(Name::Parse("a.b.example.nl")->IsSubdomainOf(zone));
  EXPECT_TRUE(zone.IsSubdomainOf(zone));
  EXPECT_FALSE(Name::Parse("example.nz")->IsSubdomainOf(zone));
  EXPECT_FALSE(Name::Parse("badexample.nl")->IsSubdomainOf(zone));
  EXPECT_FALSE(Name::Parse("nl")->IsSubdomainOf(zone));
  // Everything is under the root.
  EXPECT_TRUE(zone.IsSubdomainOf(Name{}));
  // Case-insensitive.
  EXPECT_TRUE(Name::Parse("WWW.EXAMPLE.NL")->IsSubdomainOf(zone));
}

TEST(NameTest, CanonicalOrdering) {
  // RFC 4034 §6.1 example ordering.
  EXPECT_LT(*Name::Parse("example"), *Name::Parse("a.example"));
  EXPECT_LT(*Name::Parse("a.example"), *Name::Parse("yljkjljk.a.example"));
  EXPECT_LT(*Name::Parse("yljkjljk.a.example"), *Name::Parse("z.a.example"));
  EXPECT_LT(*Name::Parse("z.example"), *Name::Parse("b.z.example"));
  EXPECT_EQ(Name::Parse("A.EXAMPLE")->Compare(*Name::Parse("a.example")), 0);
}

TEST(NameTest, CanonicalKeyOrdersAsCompare) {
  std::vector<Name> names = {
      Name(),
      *Name::Parse("example"),
      *Name::Parse("EXAMPLE"),
      *Name::Parse("a.example"),
      *Name::Parse("A.Example"),
      *Name::Parse("ab.example"),
      *Name::Parse("abc.example"),
      *Name::Parse("AbC.example"),
      *Name::Parse("b.a.example"),
      *Name::Parse("z.a.example"),
      *Name::Parse("ab.c"),
      *Name::Parse("a.bc"),
      *Name::Parse("a_b.example"),  // '_' sits between 'Z' and 'a'
      *Name::Parse("a-b.example"),
      Name::FromLabels({"a", "example"}),
      Name::FromLabels({std::string("a\0", 2), "example"}),
      Name::FromLabels({std::string("\0", 1), "example"}),
      Name::FromLabels({std::string("a\0b", 3), "example"}),
      Name::FromLabels({"a\xff", "example"}),
  };
  const auto sign = [](int v) { return (v > 0) - (v < 0); };
  for (const Name& a : names) {
    std::string key_a;
    a.AppendCanonicalKey(key_a);
    EXPECT_EQ(key_a.size(), 2 * a.FlatSize());
    for (const Name& b : names) {
      std::string key_b;
      b.AppendCanonicalKey(key_b);
      EXPECT_EQ(sign(key_a.compare(key_b)), sign(a.Compare(b)))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(NameTest, FromLabelsValidates) {
  EXPECT_EQ(Name::FromLabels({"www", "example", "nl"}).ToString(),
            "www.example.nl");
  EXPECT_THROW(Name::FromLabels({""}), std::invalid_argument);
  EXPECT_THROW(Name::FromLabels({std::string(64, 'a')}),
               std::invalid_argument);
}

TEST(NameTest, HashDistinguishesLabelBoundaries) {
  NameHash hash;
  // "ab.c" vs "a.bc" must hash (and compare) differently.
  EXPECT_NE(*Name::Parse("ab.c"), *Name::Parse("a.bc"));
  EXPECT_NE(hash(*Name::Parse("ab.c")), hash(*Name::Parse("a.bc")));
}

TEST(NameTest, PresentationHashStreamsTheKeyBytes) {
  // FNV-1a over ToKey()'s bytes, computed without building the string.
  auto fnv = [](const std::string& text, std::uint64_t h) {
    for (char c : text) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    return h;
  };
  const std::uint64_t kSeed = 0x5a534b5a534b5a53ull;
  for (const char* text :
       {".", "nl", "NS1.Dom1234.CO.nz", "a.b.c.d.e.f.g.h.example"}) {
    const Name name = *Name::Parse(text);
    EXPECT_EQ(name.PresentationHash(kSeed), fnv(name.ToKey(), kSeed)) << text;
    EXPECT_EQ(name.PresentationHash(),
              fnv(name.ToKey(), 1469598103934665603ull))
        << text;
  }
}

TEST(NameTest, SmallBufferBoundaryIsExact) {
  // One 53-byte label = 54 flat bytes, the last size that fits inline.
  auto inline_name = Name::Parse(std::string(53, 'a'));
  ASSERT_TRUE(inline_name.has_value());
  EXPECT_TRUE(inline_name->IsInline());
  // One more label pushes the flat size to 56 and onto the heap.
  auto heap_name = Name::Parse(std::string(53, 'a') + ".b");
  ASSERT_TRUE(heap_name.has_value());
  EXPECT_FALSE(heap_name->IsInline());
  EXPECT_EQ(heap_name->ToString(), std::string(53, 'a') + ".b");
}

TEST(NameTest, HeapPathSurvivesCopyMoveAndReassignment) {
  std::string label(63, 'x');
  std::string long_text = label + "." + label + "." + label;
  auto heap_name = Name::Parse(long_text);
  ASSERT_TRUE(heap_name.has_value());
  ASSERT_FALSE(heap_name->IsInline());

  Name copy = *heap_name;
  EXPECT_EQ(copy, *heap_name);
  EXPECT_EQ(copy.CachedHash(), heap_name->CachedHash());
  EXPECT_EQ(copy.ToString(), long_text);

  Name moved = std::move(copy);
  EXPECT_EQ(moved, *heap_name);
  EXPECT_EQ(moved.ToString(), long_text);

  // Heap -> inline reassignment releases the block (ASan tree verifies);
  // inline -> heap reassignment re-acquires one.
  Name slot = *heap_name;
  slot = *Name::Parse("short.nl");
  EXPECT_TRUE(slot.IsInline());
  EXPECT_EQ(slot.ToString(), "short.nl");
  slot = moved;
  EXPECT_FALSE(slot.IsInline());
  EXPECT_EQ(slot, *heap_name);
}

TEST(NameTest, MaxLengthNameRoundTripsThroughWireAndAudit) {
  // 63+63+63+61 byte labels = 254 flat bytes = the RFC 1035 255-octet
  // wire maximum including the root terminator.
  std::string label(63, 'x');
  std::string text =
      label + "." + label + "." + label + "." + std::string(61, 'y');
  auto name = Name::Parse(text);
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->WireLength(), Name::kMaxWireLength);
  EXPECT_FALSE(name->IsInline());

  // Encode is audit-hooked (CLOUDDNS_AUDIT aborts on any structural
  // fault), so a full message round trip exercises wire + audit at the
  // length limit for both SBO paths.
  for (const Name& qname : {*name, *Name::Parse("short.nl")}) {
    Message query = Message::MakeQuery(7, qname, RrType::kA);
    WireBuffer wire = query.Encode();
    auto decoded = Message::Decode(wire);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->questions.size(), 1u);
    EXPECT_EQ(decoded->questions[0].name, qname);
    EXPECT_EQ(decoded->questions[0].name.ToString(), qname.ToString());
    EXPECT_EQ(decoded->questions[0].name.CachedHash(), qname.CachedHash());
  }
}

}  // namespace
}  // namespace clouddns::dns
