#include "zone/zone_builder.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>

#include "base/threads.h"
#include "zone/dnssec.h"

namespace clouddns::zone {

namespace {

constexpr std::uint32_t kSoaTtl = 3600;
constexpr std::uint32_t kNsTtl = 3600;  ///< Apex NS set and its glue.

/// Adds the A, then the AAAA glue of each nameserver in the zone, in the
/// order given.
void AddGlue(Zone& zone, std::span<const NameserverSpec> nameservers,
             std::uint32_t ttl) {
  for (const auto& ns : nameservers) {
    if (!ns.name.IsSubdomainOf(zone.apex())) continue;
    for (const auto& addr : ns.addresses) {
      if (addr.is_v4()) zone.Add(dns::MakeA(ns.name, addr.v4(), ttl));
    }
    for (const auto& addr : ns.addresses) {
      if (!addr.is_v4()) zone.Add(dns::MakeAaaa(ns.name, addr.v6(), ttl));
    }
  }
}

}  // namespace

Zone MakeZoneSkeleton(const ZoneBuildConfig& config) {
  Zone zone(config.apex);
  for (const auto& ns : config.nameservers) {
    zone.Add(dns::MakeNs(config.apex, ns.name, kNsTtl));
  }

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

  AddGlue(zone, config.nameservers, kNsTtl);
  return zone;
}

void AddDelegation(Zone& zone, const dns::Name& child,
                   const std::vector<NameserverSpec>& nameservers,
                   bool with_ds, std::uint32_t ttl) {
  for (const auto& ns : nameservers) {
    zone.Add(dns::MakeNs(child, ns.name, ttl));
  }
  if (with_ds) zone.Add(MakeDs(child, ttl));
  AddGlue(zone, nameservers, ttl);
}

std::string DomainLabel(const std::string& stem, std::size_t i) {
  return stem + std::to_string(i);
}

namespace {

/// Children one pool task fills. A constant, so the chunks, and what each
/// allocates, are the same at every worker count.
constexpr std::size_t kChildrenPerTask = 128;

// Registrants run 2-4 nameservers; the larger NS sets are what pushes
// DO=1 referrals past a 512-byte EDNS buffer.
std::size_t NameserverCount(std::size_t i) { return 2 + i % 3; }
// Most delegations also carry AAAA glue nowadays; besides realism, the
// extra 28 bytes per record matter for EDNS-512 truncation.
bool HasV6Glue(std::size_t i) { return i % 5 != 0; }

/// The indices 0 .. count-1 in the order of their decimal spellings (0, 1,
/// 10, 100, ..., 101, ..., 11, ...): the canonical order of the labels
/// "<stem><i>".
std::vector<std::uint32_t> DecimalOrder(std::size_t count) {
  std::vector<std::uint32_t> order;
  order.reserve(count);
  if (count > 0) order.push_back(0);
  for (std::size_t i = 1; order.size() < count;) {
    order.push_back(static_cast<std::uint32_t>(i));
    if (i * 10 < count) {
      i *= 10;  // the next spelling extends this one
      continue;
    }
    while (i % 10 == 9 || i + 1 >= count) i /= 10;
    ++i;
  }
  return order;
}

/// Writes one registered domain's delegation records in canonical order.
struct DelegationWriter {
  const dns::Name& apex;
  const std::string& stem;
  net::Ipv4Address glue_base;
  std::uint32_t ttl;

  /// Child i's records from `out` on; returns the slot after its last.
  dns::ResourceRecord* Write(std::size_t i, bool with_ds,
                             dns::ResourceRecord* out) const {
    const dns::Name child = apex.Child(DomainLabel(stem, i));
    const std::size_t ns_count = NameserverCount(i);
    std::array<dns::Name, 4> ns_names;  // NameserverCount's maximum
    for (std::size_t n = 0; n < ns_count; ++n) {
      ns_names[n] = child.Child("ns" + std::to_string(n + 1));
      *out++ = dns::MakeNs(child, ns_names[n], ttl);
    }
    if (with_ds) *out++ = MakeDs(child, ttl);
    for (std::size_t n = 0; n < ns_count; ++n) {
      const auto offset = static_cast<std::uint32_t>(i * 4 + n + 1);
      *out++ = dns::MakeA(ns_names[n],
                          net::Ipv4Address(glue_base.bits() + offset), ttl);
      if (!HasV6Glue(i)) continue;
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
      *out++ = dns::MakeAaaa(ns_names[n], net::Ipv6Address(v6), ttl);
    }
    return out;
  }
};

}  // namespace

void PopulateDelegations(Zone& zone, std::size_t count,
                         const std::string& stem, double signed_fraction,
                         net::Ipv4Address glue_base, std::uint32_t ttl,
                         std::size_t threads) {
  // The longest names first, so that a stem too long for them throws
  // here, not inside a pool task.
  if (count > 0) {
    (void)zone.apex().Child(DomainLabel(stem, count - 1)).Child("ns1");
  }

  // Deterministic stride-based DS assignment, in index order: index i is
  // signed when i * signed_fraction crosses an integer boundary, giving
  // exactly round(count * fraction) signed children without an RNG.
  std::vector<bool> with_ds(count);
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    acc += signed_fraction;
    if (acc < 1.0) continue;
    with_ds[i] = true;
    acc -= 1.0;
  }

  // Each task's first slot: the records of the children before its chunk
  // of the canonical walk.
  const std::vector<std::uint32_t> walk = DecimalOrder(count);
  const std::size_t tasks = (count + kChildrenPerTask - 1) / kChildrenPerTask;
  std::vector<std::size_t> task_begin(tasks + 1, 0);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = walk[k];
    task_begin[k / kChildrenPerTask + 1] +=
        NameserverCount(i) * (HasV6Glue(i) ? 3 : 2) + (with_ds[i] ? 1 : 0);
  }
  std::partial_sum(task_begin.begin(), task_begin.end(), task_begin.begin());

  // Room for the records and for the apex DNSKEYs SignZone appends, so
  // signing a zone this size does not regrow its log.
  zone.Reserve(task_begin[tasks] + kApexDnskeyCount);
  const DelegationWriter writer{zone.apex(), stem, glue_base, ttl};
  zone.AddInPlace(task_begin[tasks], [&](std::span<dns::ResourceRecord> slots) {
    base::ThreadPool::Shared().ParallelFor(
        tasks, base::EffectiveThreads(threads), [&](std::size_t task) {
          dns::ResourceRecord* out = slots.data() + task_begin[task];
          const std::size_t end =
              std::min(count, (task + 1) * kChildrenPerTask);
          for (std::size_t k = task * kChildrenPerTask; k < end; ++k) {
            out = writer.Write(walk[k], with_ds[walk[k]], out);
          }
        });
  });
}

}  // namespace clouddns::zone
