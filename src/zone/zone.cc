// Zone building and freezing: the cold half of zone.h. The query half,
// which runs per packet, lives in zone_lookup.cc.
#include "zone/zone.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace clouddns::zone {

void Zone::Add(dns::ResourceRecord record) {
  if (!record.name.IsSubdomainOf(apex_)) {
    throw std::invalid_argument("Zone::Add: " + record.name.ToString() +
                                " is outside zone " + apex_.ToString());
  }
  if (record.type == dns::RrType::kRrsig) {
    throw std::invalid_argument("Zone::Add: RRSIG at " +
                                record.name.ToString() +
                                " (a signed zone writes its RRSIGs on demand)");
  }
  RequireUnfrozen();
  if (record.type == dns::RrType::kDnskey && record.name.Equals(apex_)) {
    signed_ = true;
  }
  log_.push_back(std::move(record));
}

void Zone::Reserve(std::size_t additional) {
  RequireUnfrozen();
  log_.reserve(log_.size() + additional);
}

std::size_t Zone::name_count() const {
  RequireFrozen();
  return name_count_;
}

void Zone::RequireFrozen() const {
  if (!frozen_) {
    throw std::logic_error("zone::Zone: query on an unfrozen zone");
  }
}

void Zone::RequireUnfrozen() const {
  if (frozen_) {
    throw std::logic_error("zone::Zone: edit of a frozen zone");
  }
}

std::uint32_t Zone::InternOwner(const dns::Name& name) {
  const std::uint32_t found = FindOwner(name);
  if (found != base::OpenTable::kNil) return found;
  const auto index = static_cast<std::uint32_t>(owners_.size());
  dns::Name walker = name;
  while (true) {
    owner_table_.Insert(walker.CachedHash(),
                        static_cast<std::uint32_t>(owners_.size()));
    owners_.push_back(Owner{walker, {}});
    if (walker.Equals(apex_)) break;
    walker = walker.Parent();
    if (FindOwner(walker) != base::OpenTable::kNil) break;
  }
  return index;
}

void Zone::Freeze() {
  if (frozen_) return;
  const std::size_t n = log_.size();

  // Register the records' owners in Add order; keys[i] holds record i's
  // owner index until it becomes the sort key below. Every owner keeps
  // the spelling it was first added with.
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = InternOwner(log_[i].name);

  // Canonical owner order: sort the owners on their canonical keys, built
  // once each into one buffer.
  std::size_t key_size = 0;
  for (const Owner& owner : owners_) key_size += 2 * owner.name.FlatSize();
  std::string key_bytes;
  key_bytes.reserve(key_size);  // never regrows, so the views stay valid
  std::vector<std::pair<std::string_view, std::uint32_t>> order;
  order.reserve(owners_.size());
  for (std::size_t o = 0; o < owners_.size(); ++o) {
    const std::size_t at = key_bytes.size();
    owners_[o].name.AppendCanonicalKey(key_bytes);
    order.emplace_back(std::string_view(key_bytes).substr(at),
                       static_cast<std::uint32_t>(o));
  }
  std::sort(order.begin(), order.end());  // keys are distinct
  std::vector<std::uint32_t> rank(owners_.size());
  for (std::size_t r = 0; r < order.size(); ++r) {
    rank[order[r].second] = static_cast<std::uint32_t>(r);
  }

  // Each record's key (owner rank, type), and where each owner's run of
  // the slab begins.
  std::vector<std::uint32_t> begin(owners_.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t r = rank[keys[i]];
    ++begin[r + 1];
    keys[i] = (std::uint64_t{r} << 16) |
              static_cast<std::uint16_t>(log_[i].type);
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());

  // Sort the records' 32-bit indices (the index breaks ties, keeping Add
  // order inside an RRset), then move each record to its slot by
  // following the permutation's cycles: n moves, and no second copy of
  // the log.
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
            });
  for (std::size_t start = 0; start < n; ++start) {
    if (perm[start] == start) continue;
    dns::ResourceRecord held = std::move(log_[start]);
    std::size_t slot = start;
    while (perm[slot] != start) {
      const std::size_t source = perm[slot];
      log_[slot] = std::move(log_[source]);
      perm[slot] = static_cast<std::uint32_t>(slot);
      slot = source;
    }
    log_[slot] = std::move(held);
    perm[slot] = static_cast<std::uint32_t>(slot);
  }

  // Owners in canonical order, each spanning its run of the slab, and the
  // table rebuilt over the new indices.
  std::vector<Owner> sorted;
  sorted.reserve(owners_.size());
  owner_table_ = base::OpenTable();
  name_count_ = 0;
  for (std::size_t r = 0; r < order.size(); ++r) {
    Owner& owner = owners_[order[r].second];
    owner.records = RecordSpan(log_.data() + begin[r], begin[r + 1] - begin[r]);
    if (!owner.records.empty()) ++name_count_;
    owner_table_.Insert(owner.name.CachedHash(), static_cast<std::uint32_t>(r));
    sorted.push_back(std::move(owner));
  }
  owners_ = std::move(sorted);
  frozen_ = true;

  const RecordSpan soa = Find(apex_, dns::RrType::kSoa);
  negative_ttl_ =
      soa.empty() ? 600 : std::get<dns::SoaRdata>(soa.front().rdata).minimum;
}

}  // namespace clouddns::zone
