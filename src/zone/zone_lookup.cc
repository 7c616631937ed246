// Zone queries: the per-packet half of zone.h, reading the frozen image
// through the owner table and returning spans of the slab.
// lint:hot-path — on the per-query serve path (DESIGN.md §10).
#include <algorithm>
#include <iterator>

#include "zone/zone.h"

namespace clouddns::zone {

RecordSpan Zone::TypeRun(RecordSpan records, dns::RrType type) {
  const auto run = std::ranges::equal_range(records, type, {},
                                            &dns::ResourceRecord::type);
  return RecordSpan(run.begin(), run.end());
}

std::uint32_t Zone::FindOwner(std::uint64_t hash, const std::uint8_t* flat,
                              std::size_t size) const {
  return owner_table_.Find(hash, [&](std::uint32_t index) {
    const dns::Name& name = owners_[index].name;
    return name.FlatSize() == size &&
           dns::Name::FlatEquals(name.FlatData(), flat, size);
  });
}

std::uint32_t Zone::FindOwner(const dns::Name& name) const {
  return FindOwner(name.CachedHash(), name.FlatData(), name.FlatSize());
}

RecordSpan Zone::RecordsAt(const dns::Name& name) const {
  RequireFrozen();
  const std::uint32_t index = FindOwner(name);
  if (index == base::OpenTable::kNil) return {};
  return owners_[index].records;
}

RecordSpan Zone::Find(const dns::Name& name, dns::RrType type) const {
  return TypeRun(RecordsAt(name), type);
}

std::span<const Zone::Owner> Zone::Owners() const {
  RequireFrozen();
  return owners_;
}

bool Zone::IsSigned() const {
  RequireFrozen();
  return signed_;
}

std::uint32_t Zone::NegativeTtl() const {
  RequireFrozen();
  return negative_ttl_;
}

Zone::DenialRange Zone::DenialNeighbors(const dns::Name& qname) const {
  RequireFrozen();
  if (owners_.empty()) return {apex_, apex_};  // wrap by default
  const auto it =
      std::lower_bound(owners_.begin(), owners_.end(), qname,
                       [](const Owner& owner, const dns::Name& name) {
                         return owner.name < name;
                       });
  return {it == owners_.begin() ? owners_.front().name : std::prev(it)->name,
          it == owners_.end() ? apex_ : it->name};
}

LookupResult Zone::Lookup(const dns::Name& qname, dns::RrType qtype) const {
  RequireFrozen();
  LookupResult result;
  if (!qname.IsSubdomainOf(apex_)) return result;  // kNotInZone

  // starts[i]: flat offset of label i (most specific first); the suffix
  // keeping the last k labels is the flat tail from starts[labels - k].
  const std::uint8_t* flat = qname.FlatData();
  const std::size_t size = qname.FlatSize();
  const std::size_t labels = qname.LabelCount();
  std::uint8_t starts[dns::Name::kMaxWireLength / 2 + 1];
  for (std::size_t i = 0, offset = 0; i <= labels; ++i) {
    starts[i] = static_cast<std::uint8_t>(offset);
    if (i < labels) offset += 1u + flat[offset];
  }

  // Walk from the apex down to qname. Every ancestor of an owner up to
  // the apex is itself an owner, so the first missing name means qname
  // does not exist. The first owner below the apex with an NS RRset is
  // the enclosing zone cut, which takes precedence over data below it.
  const Owner* owner = nullptr;
  for (std::size_t depth = apex_.LabelCount(); depth <= labels; ++depth) {
    const std::uint8_t* suffix = flat + starts[labels - depth];
    const std::size_t suffix_size = size - starts[labels - depth];
    const std::uint32_t index = FindOwner(
        dns::Name::HashFlat(suffix, suffix_size), suffix, suffix_size);
    if (index == base::OpenTable::kNil) {
      owner = nullptr;
      break;
    }
    owner = &owners_[index];
    if (depth == apex_.LabelCount()) continue;
    const RecordSpan ns = TypeRun(owner->records, dns::RrType::kNs);
    if (ns.empty()) continue;
    // Querying the cut itself for DS stays authoritative at the parent
    // (RFC 4035 §3.1.4.1); everything else is a referral.
    if (depth == labels && qtype == dns::RrType::kDs) break;
    result.status = LookupStatus::kDelegation;
    result.records = ns;
    result.ds = TypeRun(owner->records, dns::RrType::kDs);
    return result;
  }

  if (owner == nullptr) {
    result.status = LookupStatus::kNxDomain;
    result.soa = Find(apex_, dns::RrType::kSoa);
    return result;
  }
  if (qtype == dns::RrType::kAny) {
    result.records = owner->records;
  } else {
    result.records = TypeRun(owner->records, qtype);
    // CNAME at the name answers any type (we only chase one level; our
    // zones never chain CNAMEs).
    if (result.records.empty()) {
      result.records = TypeRun(owner->records, dns::RrType::kCname);
    }
  }
  if (!result.records.empty()) {
    result.status = LookupStatus::kAnswer;
    return result;
  }
  result.status = LookupStatus::kNoData;
  result.soa = Find(apex_, dns::RrType::kSoa);
  return result;
}

}  // namespace clouddns::zone
