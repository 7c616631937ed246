// An authoritative DNS zone: the record database one authoritative server
// answers from, with the lookup semantics RFC 1034 §4.3.2 requires —
// answers, referrals at zone cuts, NXDOMAIN, and NODATA.
//
// A zone is built, then frozen (DESIGN.md §10). Add() and AddInPlace()
// append to a record log; Freeze() compiles the log, in place, into the
// image every query reads:
//   - one record slab sorted by (canonical owner, type, Add order), so an
//     RRset, and every RRset at one owner, is a single span of it;
//   - the canonical owner array, empty non-terminals (ENTs) included,
//     each owner holding the span of its records (empty for an ENT);
//   - a Name-hash table from owner name to its index in that array.
// Queries read the image without locks or allocation and return spans
// into it. Freezing is final: a query on an unfrozen zone and an edit of
// a frozen one both throw std::logic_error, so a frozen zone never
// changes. Signing (zone/dnssec.h) adds the apex DNSKEYs and freezes:
// a signed image stores no RRSIG, as every one is a pure function of the
// RRset it covers, and the server writes it into the packet on demand.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/lifetime.h"
#include "base/open_table.h"
#include "dns/name.h"
#include "dns/record.h"
#include "dns/types.h"

namespace clouddns::zone {

/// A run of records borrowed from a frozen zone's slab.
using RecordSpan = std::span<const dns::ResourceRecord>;

/// What a lookup found; drives how the server builds its response.
enum class LookupStatus {
  kAnswer,      ///< Records of the requested type exist at the name.
  kDelegation,  ///< The name is at/under a zone cut: return the referral.
  kNxDomain,    ///< The name does not exist in the zone.
  kNoData,      ///< The name exists but has no records of that type.
  kNotInZone,   ///< The name is not under this zone's apex at all.
};

/// Spans into the zone's image; valid while the zone is alive and frozen.
struct LookupResult {
  LookupStatus status = LookupStatus::kNotInZone;
  /// kAnswer: the matching RRset (ANY: every record at the name, by type).
  /// kDelegation: the cut's NS RRset, whose owner is the cut.
  RecordSpan records;
  /// kDelegation: DS records of the child, for DO=1 referrals.
  RecordSpan ds;
  /// kNxDomain / kNoData: the zone SOA for the negative response.
  RecordSpan soa;
};

class Zone {
 public:
  explicit Zone(dns::Name apex) : apex_(std::move(apex)) {}

  // Move-only: owner spans point into the slab, which a move carries
  // along but a copy would not.
  Zone(Zone&&) noexcept = default;
  Zone& operator=(Zone&&) noexcept = default;
  Zone(const Zone&) = delete;
  Zone& operator=(const Zone&) = delete;

  [[nodiscard]] const dns::Name& apex() const { return apex_; }

  /// Appends one record to the log. The record's name must be at or under
  /// the apex and its type not RRSIG (a signed zone's RRSIGs are written
  /// on demand, so a stored one would be served twice); throws
  /// std::invalid_argument otherwise, and std::logic_error on a frozen
  /// zone.
  void Add(dns::ResourceRecord record);

  /// Appends `count` records that `fill` writes in place: it is handed the
  /// new slots, each holding a default record, and must assign every one.
  /// It may hand disjoint parts of them to other threads, joined before it
  /// returns. Each record is then checked as Add checks its argument; when
  /// one fails, or `fill` throws, the log is cut back to where it was and
  /// the exception propagates. Throws std::logic_error on a frozen zone.
  template <typename Fill>
  void AddInPlace(std::size_t count, Fill&& fill) {
    RequireUnfrozen();
    const std::size_t first = log_.size();
    log_.resize(first + count);
    bool apex_dnskey = false;
    try {
      fill(std::span<dns::ResourceRecord>(log_).subspan(first));
      for (std::size_t i = first; i < log_.size(); ++i) {
        apex_dnskey |= CheckRecord(log_[i]);
      }
    } catch (...) {
      log_.resize(first);
      throw;
    }
    signed_ |= apex_dnskey;
  }

  /// Makes room for `additional` more records, so a builder that knows its
  /// count appends without regrowing the log. Throws std::logic_error on a
  /// frozen zone.
  void Reserve(std::size_t additional);

  /// Compiles the log into the image (see the file comment) in place: no
  /// second copy of the records is made. Its cost follows the disorder of
  /// the log: records added in canonical order (by owner, then type) are
  /// checked in one linear pass and never move, and only the owners and
  /// records past the first one out of order are sorted and merged in. A
  /// no-op when frozen.
  void Freeze();

  /// Number of owner names that hold records (the "zone size" the paper's
  /// Table 2 reports counts registered domains; see builders). Frozen only.
  [[nodiscard]] std::size_t name_count() const;
  [[nodiscard]] std::size_t record_count() const { return log_.size(); }

  /// Performs the RFC 1034 lookup algorithm for qname/qtype.
  [[nodiscard]] LookupResult Lookup(const dns::Name& qname,
                                    dns::RrType qtype) const
      CLOUDDNS_LIFETIMEBOUND;

  /// Direct RRset access (exact name + type), no cut processing; empty
  /// when the name or the type is absent.
  [[nodiscard]] RecordSpan Find(const dns::Name& name, dns::RrType type) const
      CLOUDDNS_LIFETIMEBOUND;

  /// Calls `emit(RecordSpan)` with the glue for a referral's NS RRset: for
  /// each NS in RRset order whose target is in this zone, its A records,
  /// then its AAAA records (either span may be empty).
  template <typename Emit>
  void ForEachGlue(RecordSpan ns_set, Emit&& emit) const {
    for (const auto& ns_rr : ns_set) {
      const auto& target = std::get<dns::NsRdata>(ns_rr.rdata).nameserver;
      if (!target.IsSubdomainOf(apex_)) continue;
      const RecordSpan records = RecordsAt(target);
      emit(TypeRun(records, dns::RrType::kA));
      emit(TypeRun(records, dns::RrType::kAaaa));
    }
  }

  /// One owner name of the image and every record at it, by type then Add
  /// order; empty for an empty non-terminal.
  struct Owner {
    dns::Name name;
    RecordSpan records;
  };
  /// The image's owners in canonical order (RFC 4034 §6.1), ENTs included:
  /// the walk the master-file writer takes.
  [[nodiscard]] std::span<const Owner> Owners() const CLOUDDNS_LIFETIMEBOUND;

  /// True when the zone has an apex DNSKEY (i.e. it was signed): every
  /// RRset it serves then carries an RRSIG, written per answer.
  [[nodiscard]] bool IsSigned() const;
  /// The apex SOA MINIMUM (negative-caching TTL), 600 without a SOA.
  [[nodiscard]] std::uint32_t NegativeTtl() const;

  /// The NSEC neighbours of a nonexistent name: the greatest existing name
  /// canonically before `qname` and the least one after (wrapping to the
  /// apex past the zone's last name, per RFC 4034 §6.1 ordering). Used by
  /// the server to serve *range* denials, which is what makes aggressive
  /// NSEC caching (RFC 8198) possible at resolvers.
  struct DenialRange {
    const dns::Name& prev;
    const dns::Name& next;
  };
  [[nodiscard]] DenialRange DenialNeighbors(const dns::Name& qname) const
      CLOUDDNS_LIFETIMEBOUND;

 private:
  friend void SignZone(Zone& zone, std::uint32_t dnskey_ttl);

  /// IsSigned() for a zone frozen or not.
  [[nodiscard]] bool HasApexDnskey() const { return signed_; }
  /// Every record at `name` (Find without the type); empty when absent.
  [[nodiscard]] RecordSpan RecordsAt(const dns::Name& name) const;
  /// The RRset of `type` within one owner's records (sorted by type).
  [[nodiscard]] static RecordSpan TypeRun(RecordSpan records,
                                          dns::RrType type);
  /// Throws std::invalid_argument when `record` may not be added (see
  /// Add); true when it is an apex DNSKEY.
  [[nodiscard]] bool CheckRecord(const dns::ResourceRecord& record) const;
  /// Throws std::logic_error unless frozen.
  void RequireFrozen() const;
  /// Throws std::logic_error when frozen.
  void RequireUnfrozen() const;
  /// Index of the owner whose flat label bytes are [flat, flat + size), or
  /// base::OpenTable::kNil.
  [[nodiscard]] std::uint32_t FindOwner(std::uint64_t hash,
                                        const std::uint8_t* flat,
                                        std::size_t size) const;
  [[nodiscard]] std::uint32_t FindOwner(const dns::Name& name) const;
  /// The index of owner `name`, registered by RegisterOwner if missing.
  std::uint32_t InternOwner(const dns::Name& name);
  /// Registers any missing ancestor of `name` up to the apex (the ENTs),
  /// then `name`, which must not be an owner yet; returns its index.
  /// Ancestors come first, so names registered in canonical order
  /// register their ENTs in it too.
  std::uint32_t RegisterOwner(const dns::Name& name);
  /// Sorts the owners, the first `sorted` of which are in canonical order
  /// already, and returns each owner's position in canonical order,
  /// indexed by its registered position.
  std::vector<std::uint32_t> SortOwners(std::size_t sorted);

  dns::Name apex_;
  /// The record log; once frozen, the sorted slab the owner spans cover.
  std::vector<dns::ResourceRecord> log_;
  /// The image's owners, in canonical order once frozen.
  std::vector<Owner> owners_;
  base::OpenTable owner_table_;  // Name hash -> index into owners_
  bool frozen_ = false;
  std::size_t name_count_ = 0;
  /// An apex DNSKEY has been added; Add keeps it, as nothing is removed.
  bool signed_ = false;
  std::uint32_t negative_ttl_ = 600;
};

}  // namespace clouddns::zone
