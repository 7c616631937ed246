// Freeze's image is a pure function of a zone's records and of each
// RRset's Add order, not of the whole Add sequence: one zone's records,
// added in canonical order (the linear path), reversed, shuffled (the
// sorting path), with each owner's types reversed, and canonical with the
// DNSKEYs last (one sorted run plus a short tail), freeze into the same
// owners, spans, name count, negative TTL, lookups and NSEC neighbours.
// Seeded, so every run adds the same orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "zone/dnssec.h"
#include "zone/zone.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

dns::Name N(const std::string& text) { return *dns::Name::Parse(text); }

using Records = std::vector<dns::ResourceRecord>;
/// The records of one RRset, in their Add order.
using RrSets = std::vector<Records>;

/// A .nl-shaped zone with delegations (glue, DS), ENTs several levels
/// deep, data at the apex and the apex DNSKEYs, as one list of records in
/// canonical order: the slab of a zone frozen from them.
Records CanonicalRecords() {
  ZoneBuildConfig config;
  config.apex = N("nl");
  config.negative_ttl = 900;
  config.nameservers = {
      {N("ns1.dns.nl"), {*net::IpAddress::Parse("192.0.2.1"),
                         *net::IpAddress::Parse("2001:db8::1")}},
      {N("ns2.dns.nl"), {*net::IpAddress::Parse("192.0.2.2")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, 60, "dom", 0.5, net::Ipv4Address(100, 70, 0, 0));
  AddDelegation(zone, N("example.nl"),
                {{N("ns.example.nl"), {*net::IpAddress::Parse("198.51.100.1")}},
                 {N("ns.elsewhere.org"), {}}},
                /*with_ds=*/true);
  zone.Add(dns::MakeA(N("www.a.b.c.deep.nl"),
                      *net::Ipv4Address::Parse("203.0.113.1"), 300));
  zone.Add(dns::MakeA(N("www.a.b.c.deep.nl"),
                      *net::Ipv4Address::Parse("203.0.113.2"), 300));
  zone.Add(dns::MakeTxt(N("x.c.deep.nl"), "leaf", 300));
  zone.Add(dns::MakeTxt(N("nl"), "apex", 300));
  zone.Add(dns::MakeMx(N("nl"), 10, N("mail.nl"), 300));
  zone.Add(dns::MakeA(N("mail.nl"), *net::Ipv4Address::Parse("203.0.113.9"),
                      300));
  for (auto& key : MakeApexDnskeys(N("nl"), 3600)) zone.Add(std::move(key));
  zone.Freeze();

  Records records;
  for (const Zone::Owner& owner : zone.Owners()) {
    records.insert(records.end(), owner.records.begin(), owner.records.end());
  }
  return records;
}

RrSets GroupRrSets(const Records& records) {
  RrSets sets;
  for (const auto& rr : records) {
    if (sets.empty() || !sets.back().front().name.Equals(rr.name) ||
        sets.back().front().type != rr.type) {
      sets.emplace_back();
    }
    sets.back().push_back(rr);
  }
  return sets;
}

Records Flatten(const RrSets& sets) {
  Records records;
  for (const auto& set : sets) {
    records.insert(records.end(), set.begin(), set.end());
  }
  return records;
}

/// The RRsets' records interleaved at random, each RRset's in its order.
Records Interleave(const RrSets& sets, std::uint64_t seed) {
  std::vector<std::size_t> draws;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    draws.insert(draws.end(), sets[s].size(), s);
  }
  std::mt19937_64 rng(seed);
  std::shuffle(draws.begin(), draws.end(), rng);
  std::vector<std::size_t> next(sets.size(), 0);
  Records records;
  for (const std::size_t s : draws) records.push_back(sets[s][next[s]++]);
  return records;
}

Zone FreezeInOrder(const Records& records) {
  Zone zone(N("nl"));
  for (const auto& rr : records) zone.Add(rr);
  zone.Freeze();
  return zone;
}

/// Names whose NSEC neighbours the zones are compared on: every owner,
/// a child and a canonical successor of each, and the names between.
std::vector<dns::Name> Probes(const Zone& zone) {
  std::vector<dns::Name> probes = {N("nl"), N("a.nl"), N("zzz.nl"),
                                   N("dom.nl"), N("dom5a.nl")};
  for (const Zone::Owner& owner : zone.Owners()) {
    probes.push_back(owner.name);
    probes.push_back(owner.name.Child("0"));
    probes.push_back(owner.name.Child("zz"));
  }
  return probes;
}

void ExpectSameImage(const Zone& expected, const Zone& actual,
                     const std::string& order) {
  SCOPED_TRACE(order);
  EXPECT_EQ(actual.record_count(), expected.record_count());
  EXPECT_EQ(actual.name_count(), expected.name_count());
  EXPECT_EQ(actual.NegativeTtl(), expected.NegativeTtl());
  EXPECT_EQ(actual.IsSigned(), expected.IsSigned());
  const auto want = expected.Owners();
  const auto got = actual.Owners();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t o = 0; o < want.size(); ++o) {
    ASSERT_EQ(got[o].name.ToString(), want[o].name.ToString()) << o;
    EXPECT_EQ(got[o].records.data() - got[0].records.data(),
              want[o].records.data() - want[0].records.data())
        << want[o].name.ToString();
    ASSERT_EQ(got[o].records.size(), want[o].records.size())
        << want[o].name.ToString();
    for (std::size_t r = 0; r < want[o].records.size(); ++r) {
      EXPECT_EQ(got[o].records[r], want[o].records[r])
          << want[o].name.ToString() << " record " << r;
    }
  }
  for (const dns::Name& probe : Probes(expected)) {
    for (const dns::RrType type : {dns::RrType::kA, dns::RrType::kNs,
                                   dns::RrType::kDs, dns::RrType::kAny}) {
      const LookupResult want_lookup = expected.Lookup(probe, type);
      const LookupResult got_lookup = actual.Lookup(probe, type);
      EXPECT_EQ(got_lookup.status, want_lookup.status) << probe.ToString();
      EXPECT_TRUE(std::ranges::equal(got_lookup.records, want_lookup.records))
          << probe.ToString();
      EXPECT_TRUE(std::ranges::equal(got_lookup.ds, want_lookup.ds))
          << probe.ToString();
    }
    const auto want_range = expected.DenialNeighbors(probe);
    const auto got_range = actual.DenialNeighbors(probe);
    EXPECT_EQ(got_range.prev.ToString(), want_range.prev.ToString())
        << probe.ToString();
    EXPECT_EQ(got_range.next.ToString(), want_range.next.ToString())
        << probe.ToString();
  }
}

TEST(FreezeOrderTest, EveryAddOrderFreezesToOneImage) {
  const Records canonical = CanonicalRecords();
  const RrSets sets = GroupRrSets(canonical);
  ASSERT_GT(sets.size(), 200u);
  const Zone reference = FreezeInOrder(canonical);
  ASSERT_TRUE(reference.IsSigned());
  EXPECT_EQ(reference.NegativeTtl(), 900u);

  RrSets reversed_sets(sets.rbegin(), sets.rend());
  ExpectSameImage(reference, FreezeInOrder(Flatten(reversed_sets)),
                  "reversed");
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ExpectSameImage(reference, FreezeInOrder(Interleave(sets, seed)),
                    "shuffled, seed " + std::to_string(seed));
  }
  // Owners in canonical order, each owner's RRsets in reverse type order:
  // the only disorder is between types at one owner.
  RrSets types_reversed;
  for (std::size_t s = 0; s < sets.size();) {
    std::size_t end = s + 1;
    while (end < sets.size() &&
           sets[end].front().name.Equals(sets[s].front().name)) {
      ++end;
    }
    types_reversed.insert(types_reversed.end(), sets.rend() - end,
                          sets.rend() - s);
    s = end;
  }
  ExpectSameImage(reference, FreezeInOrder(Flatten(types_reversed)),
                  "types reversed at each owner");
  Records dnskeys_last;
  Records dnskeys;
  for (const auto& rr : canonical) {
    (rr.type == dns::RrType::kDnskey ? dnskeys : dnskeys_last).push_back(rr);
  }
  ASSERT_EQ(dnskeys.size(), kApexDnskeyCount);
  dnskeys_last.insert(dnskeys_last.end(), dnskeys.begin(), dnskeys.end());
  ExpectSameImage(reference, FreezeInOrder(dnskeys_last), "DNSKEYs last");
}

TEST(FreezeOrderTest, EntsKeepTheirFirstAddedSpelling) {
  // In canonical order (the linear path) and out of it (the sorting path),
  // an ENT is spelled as the first-added name below it, and an owner as
  // its first-added record.
  const auto ent_spelling = [](const std::vector<std::string>& names) {
    Zone zone(N("nl"));
    for (const auto& name : names) {
      zone.Add(dns::MakeA(N(name), *net::Ipv4Address::Parse("192.0.2.7"),
                          300));
    }
    zone.Freeze();
    std::vector<std::string> spelled;
    for (const Zone::Owner& owner : zone.Owners()) {
      spelled.push_back(owner.name.ToString());
    }
    return spelled;
  };
  EXPECT_EQ(ent_spelling({"x.Sub.Deep.nl", "y.sub.deep.nl", "Y.sub.deep.nl"}),
            (std::vector<std::string>{"nl", "Deep.nl", "Sub.Deep.nl",
                                      "x.Sub.Deep.nl", "y.sub.deep.nl"}));
  EXPECT_EQ(ent_spelling({"y.sub.deep.nl", "x.Sub.Deep.nl", "Y.sub.deep.nl"}),
            (std::vector<std::string>{"nl", "deep.nl", "sub.deep.nl",
                                      "x.Sub.Deep.nl", "y.sub.deep.nl"}));
  EXPECT_EQ(ent_spelling({"Y.sub.deep.nl", "x.Sub.Deep.nl", "y.sub.deep.nl"}),
            (std::vector<std::string>{"nl", "deep.nl", "sub.deep.nl",
                                      "x.Sub.Deep.nl", "Y.sub.deep.nl"}));
}

}  // namespace
}  // namespace clouddns::zone
