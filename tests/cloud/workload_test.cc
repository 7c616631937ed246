#include "cloud/workload.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

namespace clouddns::cloud {
namespace {

dns::Name N(const char* text) { return *dns::Name::Parse(text); }

WorkloadSpec NlSpec() {
  WorkloadSpec spec;
  spec.suffixes = {{N("nl"), 1000, 1.0, "dom"}};
  return spec;
}

TEST(WorkloadTest, QueriesTargetTheConfiguredSuffix) {
  WorkloadGenerator generator(NlSpec(), 1);
  for (int i = 0; i < 500; ++i) {
    ClientQuery query = generator.Next();
    EXPECT_TRUE(query.qname.IsSubdomainOf(N("nl"))) << query.qname.ToString();
  }
}

TEST(WorkloadTest, JunkFractionProducesUnregisteredNames) {
  WorkloadSpec spec = NlSpec();
  spec.junk_fraction = 0.5;
  WorkloadGenerator generator(spec, 2);
  int junk = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    ClientQuery query = generator.Next();
    // Registered names embed the "dom" stem right under the suffix.
    std::string registrable(query.qname.Label(query.qname.LabelCount() - 2));
    if (registrable.rfind("dom", 0) != 0) ++junk;
  }
  EXPECT_NEAR(junk / static_cast<double>(kDraws), 0.5, 0.04);
}

TEST(WorkloadTest, ZeroJunkMeansAllRegistered) {
  WorkloadSpec spec = NlSpec();
  spec.junk_fraction = 0.0;
  WorkloadGenerator generator(spec, 3);
  for (int i = 0; i < 1000; ++i) {
    ClientQuery query = generator.Next();
    std::string registrable(query.qname.Label(query.qname.LabelCount() - 2));
    EXPECT_EQ(registrable.rfind("dom", 0), 0u) << query.qname.ToString();
  }
}

TEST(WorkloadTest, ZipfHeadDominates) {
  WorkloadSpec spec = NlSpec();
  spec.junk_fraction = 0.0;
  WorkloadGenerator generator(spec, 4);
  std::map<std::string, int> domain_counts;
  for (int i = 0; i < 20000; ++i) {
    ClientQuery query = generator.Next();
    domain_counts[std::string(query.qname.Label(query.qname.LabelCount() - 2))]++;
  }
  EXPECT_GT(domain_counts["dom0"], domain_counts["dom99"] * 5);
}

TEST(WorkloadTest, QtypeMixRoughlyMatchesSpec) {
  WorkloadSpec spec = NlSpec();
  spec.junk_fraction = 0.0;
  WorkloadGenerator generator(spec, 5);
  int a = 0, aaaa = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    ClientQuery query = generator.Next();
    a += query.qtype == dns::RrType::kA;
    aaaa += query.qtype == dns::RrType::kAaaa;
  }
  EXPECT_NEAR(a / static_cast<double>(kDraws), 0.58, 0.03);
  EXPECT_NEAR(aaaa / static_cast<double>(kDraws), 0.27, 0.03);
}

TEST(WorkloadTest, ChromiumProbesAreSingleLabel) {
  WorkloadSpec spec = NlSpec();
  spec.chromium_fraction = 1.0;
  WorkloadGenerator generator(spec, 6);
  for (int i = 0; i < 200; ++i) {
    ClientQuery query = generator.Next();
    EXPECT_EQ(query.qname.LabelCount(), 1u);
    EXPECT_GE(query.qname.Label(0).size(), 7u);
    EXPECT_LE(query.qname.Label(0).size(), 15u);
    EXPECT_EQ(query.qtype, dns::RrType::kA);
  }
}

TEST(WorkloadTest, MultiSuffixWeights) {
  WorkloadSpec spec;
  spec.suffixes = {{N("nz"), 100, 0.2, "dom"},
                   {N("co.nz"), 100, 0.8, "dom"}};
  spec.junk_fraction = 0.0;
  WorkloadGenerator generator(spec, 7);
  int co = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    co += generator.Next().qname.IsSubdomainOf(N("co.nz"));
  }
  EXPECT_NEAR(co / static_cast<double>(kDraws), 0.8, 0.03);
}

TEST(WorkloadTest, InjectionOverridesTargets) {
  WorkloadGenerator generator(NlSpec(), 8);
  generator.InjectTargets({N("cyca.nz"), N("cycb.nz")}, 1.0);
  for (int i = 0; i < 100; ++i) {
    ClientQuery query = generator.Next();
    EXPECT_TRUE(query.qname.IsSubdomainOf(N("cyca.nz")) ||
                query.qname.IsSubdomainOf(N("cycb.nz")))
        << query.qname.ToString();
    EXPECT_TRUE(query.qtype == dns::RrType::kA ||
                query.qtype == dns::RrType::kAaaa);
  }
  generator.ClearInjection();
  ClientQuery after = generator.Next();
  EXPECT_TRUE(after.qname.IsSubdomainOf(N("nl")));
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  WorkloadGenerator a(NlSpec(), 99), b(NlSpec(), 99);
  for (int i = 0; i < 100; ++i) {
    ClientQuery qa = a.Next();
    ClientQuery qb = b.Next();
    EXPECT_EQ(qa.qname, qb.qname);
    EXPECT_EQ(qa.qtype, qb.qtype);
  }
}

TEST(WorkloadTest, SharedModelMatchesOwnedSpec) {
  WorkloadSpec spec = NlSpec();
  spec.chromium_fraction = 0.1;
  const auto model = std::make_shared<const WorkloadModel>(spec);
  WorkloadGenerator owned(spec, 42);
  WorkloadGenerator shared(model, 42);
  // Same model and seed, but injecting: `shared` must not notice.
  WorkloadGenerator injected(model, 42);
  injected.InjectTargets({N("cyca.nz")}, 1.0);
  for (int i = 0; i < 500; ++i) {
    const ClientQuery want = owned.Next();
    const ClientQuery got = shared.Next();
    EXPECT_EQ(got.qname.ToString(), want.qname.ToString()) << i;
    EXPECT_EQ(got.qtype, want.qtype) << i;
    EXPECT_TRUE(injected.Next().qname.IsSubdomainOf(N("cyca.nz")));
  }
}

TEST(WorkloadTest, RejectsEmptySuffixList) {
  WorkloadSpec spec;
  EXPECT_THROW(WorkloadGenerator(spec, 1), std::invalid_argument);
}

}  // namespace
}  // namespace clouddns::cloud
