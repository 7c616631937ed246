#include "zone/zone_builder.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "zone/dnssec.h"

namespace clouddns::zone {

namespace {

constexpr std::uint32_t kSoaTtl = 3600;
constexpr std::uint32_t kNsTtl = 3600;  ///< Apex NS set and its glue.

}  // namespace

Zone MakeZoneSkeleton(const ZoneBuildConfig& config) {
  Zone zone(config.apex);

  dns::SoaRdata soa;
  soa.mname = config.nameservers.empty() ? config.apex.Child("ns1")
                                         : config.nameservers.front().name;
  soa.rname = config.apex.Child("hostmaster");
  soa.serial = 2020040500;
  soa.refresh = 7200;
  soa.retry = 3600;
  soa.expire = 1209600;
  soa.minimum = config.negative_ttl;
  zone.Add(dns::MakeSoa(config.apex, soa, kSoaTtl));

  for (const auto& ns : config.nameservers) {
    zone.Add(dns::MakeNs(config.apex, ns.name, kNsTtl));
    if (!ns.name.IsSubdomainOf(config.apex)) continue;
    for (const auto& addr : ns.addresses) {
      if (addr.is_v4()) {
        zone.Add(dns::MakeA(ns.name, addr.v4(), kNsTtl));
      } else {
        zone.Add(dns::MakeAaaa(ns.name, addr.v6(), kNsTtl));
      }
    }
  }
  return zone;
}

namespace {

void AddDelegationRecords(Zone& zone, const dns::Name& child,
                          std::span<const NameserverSpec> nameservers,
                          bool with_ds, std::uint32_t ttl) {
  for (const auto& ns : nameservers) {
    zone.Add(dns::MakeNs(child, ns.name, ttl));
    if (!ns.name.IsSubdomainOf(zone.apex())) continue;
    for (const auto& addr : ns.addresses) {
      if (addr.is_v4()) {
        zone.Add(dns::MakeA(ns.name, addr.v4(), ttl));
      } else {
        zone.Add(dns::MakeAaaa(ns.name, addr.v6(), ttl));
      }
    }
  }
  if (with_ds) {
    zone.Add(MakeDs(child, ttl));
  }
}

// Registrants run 2-4 nameservers; the larger NS sets are what pushes
// DO=1 referrals past a 512-byte EDNS buffer.
std::size_t NameserverCount(std::size_t i) { return 2 + i % 3; }
// Most delegations also carry AAAA glue nowadays; besides realism, the
// extra 28 bytes per record matter for EDNS-512 truncation.
bool HasV6Glue(std::size_t i) { return i % 5 != 0; }

}  // namespace

void AddDelegation(Zone& zone, const dns::Name& child,
                   const std::vector<NameserverSpec>& nameservers,
                   bool with_ds, std::uint32_t ttl) {
  AddDelegationRecords(zone, child, nameservers, with_ds, ttl);
}

std::string DomainLabel(const std::string& stem, std::size_t i) {
  return stem + std::to_string(i);
}

void PopulateDelegations(Zone& zone, std::size_t count,
                         const std::string& stem, double signed_fraction,
                         net::Ipv4Address glue_base, std::uint32_t ttl) {
  // Reserve the log once: each NS brings an A and maybe an AAAA glue
  // record, and at most ceil(count * fraction) children get a DS.
  std::size_t records = static_cast<std::size_t>(std::ceil(
      static_cast<double>(count) * std::min(signed_fraction, 1.0)));
  for (std::size_t i = 0; i < count; ++i) {
    records += NameserverCount(i) * (HasV6Glue(i) ? 3 : 2);
  }
  zone.Reserve(records);

  // One NameserverSpec vector, address vectors included, serves every
  // delegation: each iteration overwrites its first NameserverCount(i).
  std::vector<NameserverSpec> nameservers(4);  // NameserverCount's maximum
  // Deterministic stride-based DS assignment: index i is signed when
  // i * signed_fraction crosses an integer boundary, giving exactly
  // round(count * fraction) signed children without an RNG.
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    dns::Name child = zone.apex().Child(DomainLabel(stem, i));
    acc += signed_fraction;
    bool with_ds = acc >= 1.0;
    if (with_ds) acc -= 1.0;

    const std::size_t ns_count = NameserverCount(i);
    for (std::size_t n = 1; n <= ns_count; ++n) {
      NameserverSpec& spec = nameservers[n - 1];
      spec.name = child.Child("ns" + std::to_string(n));
      std::uint32_t offset = static_cast<std::uint32_t>(i * 4 + n);
      spec.addresses.clear();
      spec.addresses.push_back(net::Ipv4Address(glue_base.bits() + offset));
      if (HasV6Glue(i)) {
        net::Ipv6Address::Bytes v6{};
        v6[0] = 0x20;
        v6[1] = 0x01;
        v6[2] = 0x0d;
        v6[3] = 0xba;
        v6[4] = static_cast<std::uint8_t>(glue_base.bits() >> 24);
        v6[5] = static_cast<std::uint8_t>(glue_base.bits() >> 16);
        for (int b = 0; b < 4; ++b) {
          v6[static_cast<std::size_t>(12 + b)] =
              static_cast<std::uint8_t>(offset >> (8 * (3 - b)));
        }
        spec.addresses.push_back(net::Ipv6Address(v6));
      }
    }
    AddDelegationRecords(
        zone, child, std::span(nameservers).first(ns_count), with_ds, ttl);
  }
}

}  // namespace clouddns::zone
