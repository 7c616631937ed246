// Generators for the zones the study's authoritative servers serve: a
// root zone delegating TLDs, and TLD zones with many registered-domain
// delegations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/ip.h"
#include "zone/zone.h"

namespace clouddns::zone {

struct NameserverSpec {
  dns::Name name;
  std::vector<net::IpAddress> addresses;  ///< v4 and/or v6.
};

struct ZoneBuildConfig {
  dns::Name apex;
  std::vector<NameserverSpec> nameservers;  ///< The zone's own NS set.
  std::uint32_t negative_ttl = 600;  ///< SOA MINIMUM, negative-caching TTL.
};

/// Builds apex SOA + NS (+ in-zone glue). Signing is applied by the caller
/// *after* all delegations are added, as SignZone freezes the zone. The
/// records are added in canonical order (DESIGN.md §10) when the
/// nameservers are given in it: the apex NS set, the SOA, then each
/// in-zone nameserver's A and AAAA glue.
[[nodiscard]] Zone MakeZoneSkeleton(const ZoneBuildConfig& config);

/// Adds a delegation for `child`: the NS records at the cut, then, when
/// `with_ds` is set, a mock DS marking the child as DNSSEC-signed from the
/// parent's perspective, then each in-zone nameserver's A and AAAA glue.
void AddDelegation(Zone& zone, const dns::Name& child,
                   const std::vector<NameserverSpec>& nameservers,
                   bool with_ds, std::uint32_t ttl = 86400);

/// Adds `count` registered-domain delegations named
/// "<stem><index>.<apex>", child i with 2 + i % 3 in-child nameservers.
/// Each nameserver gets IPv4 glue derived deterministically from
/// `glue_base`, and AAAA glue too in four of every five children (all
/// but i % 5 == 0). A `signed_fraction` of children (by index stride)
/// also get DS records.
///
/// The records are added in canonical order, so Freeze moves none of
/// them: the children by the decimal spelling of their index (0, 1, 10,
/// 100, ...), each as its NS set, its DS, then each nameserver's A and
/// AAAA glue. Fixed-size chunks of that walk are filled in place as tasks
/// of the shared pool on `threads` workers (0 = base::EffectiveThreads);
/// the records and the allocations are the same for any worker count.
void PopulateDelegations(Zone& zone, std::size_t count,
                         const std::string& stem, double signed_fraction,
                         net::Ipv4Address glue_base,
                         std::uint32_t ttl = 86400, std::size_t threads = 0);

/// Registered-domain label for index `i` ("<stem><i>").
[[nodiscard]] std::string DomainLabel(const std::string& stem, std::size_t i);

}  // namespace clouddns::zone
