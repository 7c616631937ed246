// Zone building and freezing: the cold half of zone.h. The query half,
// which runs per packet, lives in zone_lookup.cc.
#include "zone/zone.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "base/threads.h"

namespace clouddns::zone {

void Zone::Add(dns::ResourceRecord record) {
  if (!record.name.IsSubdomainOf(apex_)) {
    throw std::invalid_argument("Zone::Add: " + record.name.ToString() +
                                " is outside zone " + apex_.ToString());
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

void Zone::InsertRrsigs(
    const std::function<dns::ResourceRecord(const dns::ResourceRecord&)>&
        make_rrsig) {
  RequireFrozen();
  // Per owner: where its run of the slab begins, how many of its records
  // have a type <= RRSIG, and, as a prefix sum, how many RRSIGs the owners
  // before it gain. Signing adds no owner, so owners_ and owner_table_
  // stay as they are.
  const std::size_t owners = owners_.size();
  std::vector<std::uint32_t> begin(owners + 1, 0);
  std::vector<std::uint32_t> below(owners, 0);
  std::vector<std::uint32_t> shift(owners + 1, 0);
  for (std::size_t o = 0; o < owners; ++o) {
    const RecordSpan records = owners_[o].records;
    std::uint32_t rrsets = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const dns::RrType type = records[i].type;
      if (type <= dns::RrType::kRrsig) ++below[o];
      if (type != dns::RrType::kRrsig &&
          (i == 0 || records[i - 1].type != type)) {
        ++rrsets;
      }
    }
    begin[o + 1] = begin[o] + static_cast<std::uint32_t>(records.size());
    shift[o + 1] = shift[o] + rrsets;
  }

  // Grow the log once, then move each owner's records back to front, the
  // last owner first: its records of type <= RRSIG shift by the RRSIGs
  // of the owners before it, and the rest land after its own gap. Every
  // destination is at or past its source and past what is still unmoved.
  log_.resize(log_.size() + shift[owners]);  // the spans dangle from here
  const auto at = [this](std::size_t i) {
    return log_.begin() + static_cast<std::ptrdiff_t>(i);
  };
  for (std::size_t o = owners; o-- > 0 && shift[o + 1] > 0;) {
    const std::size_t split = begin[o] + below[o];
    std::move_backward(at(split), at(begin[o + 1]),
                       at(begin[o + 1] + shift[o + 1]));
    if (shift[o] > 0) {
      std::move_backward(at(begin[o]), at(split), at(split + shift[o]));
    }
  }
  for (std::size_t o = 0; o < owners; ++o) {
    owners_[o].records =
        RecordSpan(log_.data() + begin[o] + shift[o],
                   begin[o + 1] - begin[o] + shift[o + 1] - shift[o]);
  }

  // Fill the gaps. A task reads only its owners' records and writes only
  // their gap slots, and a slot is fixed by the prefix sums alone, so the
  // image does not depend on how the pool schedules the tasks.
  constexpr std::size_t kOwnersPerTask = 2048;
  base::ThreadPool::Shared().ParallelFor(
      (owners + kOwnersPerTask - 1) / kOwnersPerTask,
      base::EffectiveThreads(0), [&](std::size_t task) {
        const std::size_t last = std::min(owners, (task + 1) * kOwnersPerTask);
        for (std::size_t o = task * kOwnersPerTask; o < last; ++o) {
          const std::size_t first = begin[o] + shift[o];
          const std::size_t gap = first + below[o];
          const std::size_t after = gap + shift[o + 1] - shift[o];
          std::size_t slot = gap;
          const auto sign_runs = [&](std::size_t from, std::size_t to) {
            for (std::size_t i = from; i < to; ++i) {
              const dns::ResourceRecord& rr = log_[i];
              if (rr.type == dns::RrType::kRrsig) continue;
              if (i == from || log_[i - 1].type != rr.type) {
                log_[slot++] = make_rrsig(rr);
              }
            }
          };
          sign_runs(first, gap);
          sign_runs(after, begin[o + 1] + shift[o + 1]);
        }
      });
}

}  // namespace clouddns::zone
