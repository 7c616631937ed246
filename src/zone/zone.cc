// Zone building and freezing: the cold half of zone.h. The query half,
// which runs per packet, lives in zone_lookup.cc.
#include "zone/zone.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace clouddns::zone {

bool Zone::CheckRecord(const dns::ResourceRecord& record) const {
  if (!record.name.IsSubdomainOf(apex_)) {
    throw std::invalid_argument("Zone::Add: " + record.name.ToString() +
                                " is outside zone " + apex_.ToString());
  }
  if (record.type == dns::RrType::kRrsig) {
    throw std::invalid_argument("Zone::Add: RRSIG at " +
                                record.name.ToString() +
                                " (a signed zone writes its RRSIGs on demand)");
  }
  return record.type == dns::RrType::kDnskey && record.name.Equals(apex_);
}

void Zone::Add(dns::ResourceRecord record) {
  const bool apex_dnskey = CheckRecord(record);
  RequireUnfrozen();
  signed_ |= apex_dnskey;
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
  return found != base::OpenTable::kNil ? found : RegisterOwner(name);
}

std::uint32_t Zone::RegisterOwner(const dns::Name& name) {
  if (!name.Equals(apex_)) {
    // The parent's flat bytes are the name's past its first label, so it
    // is looked up without building it; only a missing one is built.
    const std::uint8_t* parent = name.FlatData() + 1 + name.FlatData()[0];
    const std::size_t size =
        name.FlatSize() - static_cast<std::size_t>(parent - name.FlatData());
    if (FindOwner(dns::Name::HashFlat(parent, size), parent, size) ==
        base::OpenTable::kNil) {
      RegisterOwner(name.Parent());
    }
  }
  const auto index = static_cast<std::uint32_t>(owners_.size());
  owner_table_.Insert(name.CachedHash(), index);
  owners_.push_back(Owner{name, {}});
  return index;
}

namespace {

/// The end of the run of indices from 0 that is in `less` order, given
/// that the run reaches `from` at least.
template <typename Less>
std::size_t SortedRunEnd(std::size_t from, std::size_t size, Less less) {
  std::size_t i = std::max<std::size_t>(from, 1);
  while (i < size && !less(static_cast<std::uint32_t>(i),
                           static_cast<std::uint32_t>(i - 1))) {
    ++i;
  }
  return std::min(i, size);
}

/// Merges `tail`, indices at or past `sorted` in `less` order, into the
/// indices [0, sorted), which are in that order already; `less` breaks
/// ties by index, so the run's elements stay ahead of equal ones. Returns
/// the first position whose index changes and sets `order` to the indices
/// that fill the positions from it on.
template <typename Less>
std::size_t MergeIntoRun(std::size_t sorted,
                         const std::vector<std::uint32_t>& tail, Less less,
                         std::vector<std::uint32_t>& order) {
  order.clear();
  if (tail.empty()) return sorted;
  const auto run =
      std::views::iota(std::uint32_t{0}, static_cast<std::uint32_t>(sorted));
  const auto from = std::ranges::upper_bound(run, tail.front(), less);
  order.reserve(static_cast<std::size_t>(run.end() - from) + tail.size());
  std::ranges::merge(std::ranges::subrange(from, run.end()), tail,
                     std::back_inserter(order), less);
  return static_cast<std::size_t>(from - run.begin());
}

/// Moves items[order[k]] to items[first + k] for every k by following the
/// permutation's cycles: one move per item that changes place, and no
/// second copy of the items. Consumes `order`.
template <typename T>
void ApplyOrder(std::vector<T>& items, std::size_t first,
                std::vector<std::uint32_t>& order) {
  const auto source_of = [&](std::size_t slot) -> std::uint32_t& {
    return order[slot - first];
  };
  for (std::size_t start = first; start < first + order.size(); ++start) {
    if (source_of(start) == start) continue;
    T held = std::move(items[start]);
    std::size_t slot = start;
    while (source_of(slot) != start) {
      const std::size_t source = source_of(slot);
      items[slot] = std::move(items[source]);
      source_of(slot) = static_cast<std::uint32_t>(slot);
      slot = source;
    }
    items[slot] = std::move(held);
    source_of(slot) = static_cast<std::uint32_t>(slot);
  }
}

}  // namespace

std::vector<std::uint32_t> Zone::SortOwners(std::size_t sorted) {
  const std::size_t m = owners_.size();
  const auto less = [this](std::uint32_t a, std::uint32_t b) {
    return owners_[a].name < owners_[b].name;
  };
  sorted = SortedRunEnd(sorted, m, less);

  // The owners past the run, sorted on their canonical keys, built once
  // each into one buffer.
  std::size_t key_size = 0;
  for (std::size_t o = sorted; o < m; ++o) {
    key_size += 2 * owners_[o].name.FlatSize();
  }
  std::string key_bytes;
  key_bytes.reserve(key_size);  // never regrows, so the views stay valid
  std::vector<std::pair<std::string_view, std::uint32_t>> keyed;
  keyed.reserve(m - sorted);
  for (std::size_t o = sorted; o < m; ++o) {
    const std::size_t at = key_bytes.size();
    owners_[o].name.AppendCanonicalKey(key_bytes);
    keyed.emplace_back(std::string_view(key_bytes).substr(at),
                       static_cast<std::uint32_t>(o));
  }
  std::sort(keyed.begin(), keyed.end());  // keys are distinct
  std::vector<std::uint32_t> tail;
  tail.reserve(keyed.size());
  for (const auto& entry : keyed) tail.push_back(entry.second);

  std::vector<std::uint32_t> order;
  const std::size_t first = MergeIntoRun(sorted, tail, less, order);
  std::vector<std::uint32_t> rank(m);
  std::iota(rank.begin(), rank.end(), 0u);
  if (order.empty()) return rank;
  for (std::size_t k = 0; k < order.size(); ++k) {
    rank[order[k]] = static_cast<std::uint32_t>(first + k);
  }
  owner_table_.Renumber(rank);
  ApplyOrder(owners_, first, order);
  return rank;
}

void Zone::Freeze() {
  if (frozen_) return;
  const std::size_t n = log_.size();

  // Register each record's owner in Add order, and find where the run of
  // records in canonical (owner, type) order ends. A record at the owner
  // of the one before it reuses its index. Inside the run, a record at
  // another name follows every owner registered so far, so the name is
  // new and needs no lookup, and the owners register in canonical order.
  // Every owner keeps the spelling it was first added with.
  std::vector<std::uint32_t> owner_of(n);
  std::size_t sorted = n;
  std::size_t sorted_owners = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const dns::ResourceRecord& rr = log_[i];
    if (i > 0 && rr.name.Equals(log_[i - 1].name)) {
      owner_of[i] = owner_of[i - 1];
      if (sorted == n && rr.type < log_[i - 1].type) sorted = i;
      continue;
    }
    if (sorted == n && i > 0 && rr.name < log_[i - 1].name) sorted = i;
    if (sorted == n) {
      owner_of[i] = RegisterOwner(rr.name);
      sorted_owners = owners_.size();
    } else {
      owner_of[i] = InternOwner(rr.name);
    }
  }
  const std::vector<std::uint32_t> rank = SortOwners(sorted_owners);

  // Each record's key is (owner rank, type); the index breaks ties, which
  // keeps Add order inside an RRset. The records past the run are sorted
  // on it and merged into the run.
  const auto key = [&](std::uint32_t i) {
    return (std::uint64_t{rank[owner_of[i]]} << 16) |
           static_cast<std::uint16_t>(log_[i].type);
  };
  const auto less = [&key](std::uint32_t a, std::uint32_t b) {
    const std::uint64_t key_a = key(a);
    const std::uint64_t key_b = key(b);
    return key_a != key_b ? key_a < key_b : a < b;
  };
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(n - sorted);
  for (std::size_t i = sorted; i < n; ++i) {
    keyed.emplace_back(key(static_cast<std::uint32_t>(i)),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::uint32_t> tail;
  tail.reserve(keyed.size());
  for (const auto& entry : keyed) tail.push_back(entry.second);

  // Where each owner's run of the slab begins.
  std::vector<std::uint32_t> begin(owners_.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++begin[rank[owner_of[i]] + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());

  // Only the records from the first position that changes move.
  std::vector<std::uint32_t> order;
  const std::size_t first = MergeIntoRun(sorted, tail, less, order);
  ApplyOrder(log_, first, order);

  name_count_ = 0;
  for (std::size_t r = 0; r < owners_.size(); ++r) {
    Owner& owner = owners_[r];
    owner.records = RecordSpan(log_.data() + begin[r], begin[r + 1] - begin[r]);
    if (!owner.records.empty()) ++name_count_;
  }
  frozen_ = true;

  const RecordSpan soa = Find(apex_, dns::RrType::kSoa);
  negative_ttl_ =
      soa.empty() ? 600 : std::get<dns::SoaRdata>(soa.front().rdata).minimum;
}

}  // namespace clouddns::zone
