// Resolver-side caches.
//
// DnsCache holds positive and negative answers (RFC 2308 semantics: NODATA
// is cached per qname+type, NXDOMAIN per qname). InfraCache holds the
// "infrastructure" view — each delegated zone's nameserver addresses, DS
// presence, and fetched DNSKEYs — which is what makes an iterative resolver
// send only cache-miss traffic to the authoritatives, the property §2 of
// the paper leans on ("we only see DNS cache misses").
//
// All three caches are keyed on the Name's precomputed hash plus its flat
// label bytes: lookups never build a ToKey() string. DnsCache additionally
// threads an intrusive index-based LRU through its entry slab, replacing
// the old std::list<std::string> whose every touch allocated.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "base/lifetime.h"
#include "base/open_table.h"
#include "dns/record.h"
#include "dns/types.h"
#include "net/ip.h"
#include "sim/clock.h"

namespace clouddns::resolver {

struct CachedAnswer {
  dns::Rcode rcode = dns::Rcode::kNoError;
  std::vector<dns::ResourceRecord> records;
  sim::TimeUs expires_at = 0;
};

/// Positive/negative answer cache with TTL expiry and LRU eviction. A
/// lookup that finds a TTL-expired entry erases it and reports a miss.
///
/// Returned CachedAnswer pointers are invalidated by the next mutating
/// call (Put/PutNxDomain, or a Get that erases an expired entry) — copy
/// out what you need before touching the cache again.
class DnsCache {
 public:
  explicit DnsCache(std::size_t max_entries) : max_entries_(max_entries) {}

  void Put(const dns::Name& qname, dns::RrType qtype, CachedAnswer&& answer);
  /// NXDOMAIN entries are stored under the qname alone and match any type.
  void PutNxDomain(const dns::Name& qname, sim::TimeUs expires_at);

  [[nodiscard]] const CachedAnswer* Get(const dns::Name& qname,
                                        dns::RrType qtype, sim::TimeUs now);
  [[nodiscard]] bool IsNxDomain(const dns::Name& qname, sim::TimeUs now);

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint32_t kNil = base::OpenTable::kNil;
  /// Tag for NXDOMAIN entries; outside the 16-bit qtype space so it can
  /// never collide with a real type.
  static constexpr std::uint32_t kNxTag = 0x10000;

  struct Entry {
    dns::Name name;
    std::uint64_t hash = 0;  ///< Name hash mixed with the tag.
    std::uint32_t tag = 0;   ///< Qtype value, or kNxTag.
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    bool used = false;
    CachedAnswer answer;
  };

  static std::uint64_t TaggedHash(const dns::Name& qname, std::uint32_t tag);
  [[nodiscard]] std::uint32_t Find(const dns::Name& qname,
                                   std::uint32_t tag) const;
  void PutTagged(const dns::Name& qname, std::uint32_t tag,
                 CachedAnswer&& answer);
  [[nodiscard]] Entry* GetTagged(const dns::Name& qname, std::uint32_t tag,
                                 sim::TimeUs now);
  void LruUnlink(std::uint32_t index);
  void LruPushFront(std::uint32_t index);
  void Touch(std::uint32_t index);
  void EraseEntry(std::uint32_t index);
  void EvictIfNeeded();

  std::size_t max_entries_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  base::OpenTable table_;
  std::size_t count_ = 0;
  std::uint32_t lru_head_ = kNil;  ///< Most recently used.
  std::uint32_t lru_tail_ = kNil;  ///< Eviction victim.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// What the resolver knows about one delegated zone.
struct ZoneEntry {
  dns::Name apex;
  /// Nameserver addresses, the `v4_count` IPv4 ones first, then IPv6:
  /// one buffer, so a reused entry keeps one allocation.
  std::vector<net::IpAddress> addresses;
  std::uint32_t v4_count = 0;
  /// DS state: unknown until fetched from the parent (validators only).
  enum class Ds : std::uint8_t { kUnknown, kPresent, kAbsent } ds =
      Ds::kUnknown;
  sim::TimeUs expires_at = 0;
  /// When the zone's DNSKEY RRset was last fetched; refetch after TTL.
  sim::TimeUs dnskey_expires_at = 0;

  [[nodiscard]] std::span<const net::IpAddress> v4() const
      CLOUDDNS_LIFETIMEBOUND {
    // lint:allow(borrow-return): `addresses` is this entry's member, not a local; the view lives as long as the entry
    return std::span<const net::IpAddress>(addresses).first(v4_count);
  }
  [[nodiscard]] std::span<const net::IpAddress> v6() const
      CLOUDDNS_LIFETIMEBOUND {
    // lint:allow(borrow-return): `addresses` is this entry's member, not a local; the view lives as long as the entry
    return std::span<const net::IpAddress>(addresses).subspan(v4_count);
  }
};

/// Returned ZoneEntry pointers and references stay valid across later
/// Puts (the resolver holds one across a recursive resolution that fills
/// the cache): entries live in fixed-size chunks that never move and are
/// overwritten in place on re-Put. An expired entry's slot keeps its
/// buffers for the next Put to reuse.
class InfraCache {
 public:
  /// Copies `entry` into the slot of its apex (or a free slot) and returns
  /// the stored entry. The copy reuses the slot's address buffer, so it
  /// allocates only when the new address set outgrows it.
  ZoneEntry& Put(const ZoneEntry& entry) CLOUDDNS_LIFETIMEBOUND;
  [[nodiscard]] ZoneEntry* Get(const dns::Name& apex, sim::TimeUs now);

  /// Deepest cached zone at-or-above `qname` that has not expired; the
  /// resolution walk starts there instead of the root. Probes suffix
  /// slices of qname's flat bytes directly — no per-level Name built.
  [[nodiscard]] ZoneEntry* DeepestEnclosing(const dns::Name& qname,
                                            sim::TimeUs now);

  [[nodiscard]] std::size_t size() const { return table_.size(); }

 private:
  static constexpr std::uint32_t kChunkSlots = 64;
  using Chunk = std::array<ZoneEntry, kChunkSlots>;

  [[nodiscard]] ZoneEntry& SlotAt(std::uint32_t index) {
    return (*chunks_[index / kChunkSlots])[index % kChunkSlots];
  }

  /// Looks up by a flat-byte view (a suffix slice of some name), erasing
  /// the entry if expired, exactly like the old Get.
  [[nodiscard]] ZoneEntry* GetView(std::uint64_t hash,
                                   const std::uint8_t* flat, std::size_t size,
                                   sim::TimeUs now);

  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< Stable slot addresses.
  std::uint32_t slot_count_ = 0;  ///< Slots handed out so far.
  std::vector<std::uint32_t> free_;
  base::OpenTable table_;
};

/// Aggressive NSEC cache (RFC 8198): validated denial *ranges* from signed
/// zones. A cached range [prev, next) lets the resolver synthesize
/// NXDOMAIN for any name it covers without asking the authoritative —
/// which is how large validating resolvers absorb random-name junk before
/// it reaches the root (§4.2.3 of the paper).
class NsecRangeCache {
 public:
  struct Range {
    dns::Name prev;
    dns::Name next;
    sim::TimeUs expires_at = 0;
  };

  void Put(const dns::Name& zone_apex, Range range);

  /// True when an unexpired cached range of `zone_apex` proves `qname`
  /// does not exist (strictly inside (prev, next), or past the last name
  /// when the range wraps to the apex).
  [[nodiscard]] bool Covers(const dns::Name& zone_apex,
                            const dns::Name& qname, sim::TimeUs now);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  struct NameCanonicalLess {
    bool operator()(const dns::Name& a, const dns::Name& b) const {
      return a.Compare(b) < 0;
    }
  };
  using RangeMap = std::map<dns::Name, Range, NameCanonicalLess>;

  struct ZoneRanges {
    dns::Name apex;
    RangeMap ranges;
  };

  [[nodiscard]] std::uint32_t FindZone(const dns::Name& apex) const;

  std::vector<ZoneRanges> zones_;
  base::OpenTable table_;
  std::uint64_t hits_ = 0;
};

}  // namespace clouddns::resolver
