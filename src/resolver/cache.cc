#include "resolver/cache.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include "base/hash.h"

namespace clouddns::resolver {

std::uint64_t DnsCache::TaggedHash(const dns::Name& qname,
                                   std::uint32_t tag) {
  // Combine the cached name hash with the type tag, so
  // qname/A, qname/AAAA and qname/NXDOMAIN land in unrelated slots.
  return base::HashCombine(qname.CachedHash(), tag);
}

std::uint32_t DnsCache::Find(const dns::Name& qname, std::uint32_t tag) const {
  return table_.Find(TaggedHash(qname, tag), [&](std::uint32_t index) {
    const Entry& entry = entries_[index];
    return entry.tag == tag && entry.name.Equals(qname);
  });
}

void DnsCache::PutTagged(const dns::Name& qname, std::uint32_t tag,
                         CachedAnswer&& answer) {
  const std::uint32_t existing = Find(qname, tag);
  if (existing != kNil) {
    entries_[existing].answer = std::move(answer);
    Touch(existing);
    return;
  }
  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[index];
  entry.name = qname;
  entry.hash = TaggedHash(qname, tag);
  entry.tag = tag;
  entry.used = true;
  entry.answer = std::move(answer);
  table_.Insert(entry.hash, index);
  ++count_;
  LruPushFront(index);
  EvictIfNeeded();
}

DnsCache::Entry* DnsCache::GetTagged(const dns::Name& qname, std::uint32_t tag,
                                     sim::TimeUs now) {
  // Expired entries count as misses and are erased on sight.
  const std::uint32_t index = Find(qname, tag);
  if (index == kNil) return nullptr;
  Entry& entry = entries_[index];
  if (entry.answer.expires_at <= now) {
    EraseEntry(index);
    return nullptr;
  }
  Touch(index);
  return &entry;
}

void DnsCache::Put(const dns::Name& qname, dns::RrType qtype,
                   CachedAnswer&& answer) {
  PutTagged(qname, static_cast<std::uint32_t>(qtype), std::move(answer));
}

void DnsCache::PutNxDomain(const dns::Name& qname, sim::TimeUs expires_at) {
  CachedAnswer answer;
  answer.rcode = dns::Rcode::kNxDomain;
  answer.expires_at = expires_at;
  PutTagged(qname, kNxTag, std::move(answer));
}

const CachedAnswer* DnsCache::Get(const dns::Name& qname, dns::RrType qtype,
                                  sim::TimeUs now) {
  Entry* entry = GetTagged(qname, static_cast<std::uint32_t>(qtype), now);
  if (entry == nullptr) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &entry->answer;
}

bool DnsCache::IsNxDomain(const dns::Name& qname, sim::TimeUs now) {
  return GetTagged(qname, kNxTag, now) != nullptr;
}

void DnsCache::LruUnlink(std::uint32_t index) {
  Entry& entry = entries_[index];
  if (entry.lru_prev != kNil) {
    entries_[entry.lru_prev].lru_next = entry.lru_next;
  } else {
    lru_head_ = entry.lru_next;
  }
  if (entry.lru_next != kNil) {
    entries_[entry.lru_next].lru_prev = entry.lru_prev;
  } else {
    lru_tail_ = entry.lru_prev;
  }
  entry.lru_prev = kNil;
  entry.lru_next = kNil;
}

void DnsCache::LruPushFront(std::uint32_t index) {
  Entry& entry = entries_[index];
  entry.lru_prev = kNil;
  entry.lru_next = lru_head_;
  if (lru_head_ != kNil) entries_[lru_head_].lru_prev = index;
  lru_head_ = index;
  if (lru_tail_ == kNil) lru_tail_ = index;
}

void DnsCache::Touch(std::uint32_t index) {
  if (lru_head_ == index) return;
  LruUnlink(index);
  LruPushFront(index);
}

void DnsCache::EraseEntry(std::uint32_t index) {
  Entry& entry = entries_[index];
  table_.Erase(entry.hash, [&](std::uint32_t v) { return v == index; });
  LruUnlink(index);
  entry.name = dns::Name();
  entry.answer = CachedAnswer{};
  entry.used = false;
  free_.push_back(index);
  --count_;
}

void DnsCache::EvictIfNeeded() {
  while (count_ > max_entries_ && lru_tail_ != kNil) {
    EraseEntry(lru_tail_);
  }
}

ZoneEntry& InfraCache::Put(const ZoneEntry& entry) {
  const std::uint64_t hash = entry.apex.CachedHash();
  std::uint32_t index = table_.Find(hash, [&](std::uint32_t i) {
    return SlotAt(i).apex.Equals(entry.apex);
  });
  if (index == base::OpenTable::kNil) {
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      if (slot_count_ % kChunkSlots == 0) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
      index = slot_count_++;
    }
    table_.Insert(hash, index);
  }
  // Overwrite in place: resolver code holds ZoneEntry pointers across
  // nested Puts, and a slot's address never changes.
  ZoneEntry& slot = SlotAt(index);
  slot = entry;
  return slot;
}

ZoneEntry* InfraCache::GetView(std::uint64_t hash, const std::uint8_t* flat,
                               std::size_t size, sim::TimeUs now) {
  const std::uint32_t index = table_.Find(hash, [&](std::uint32_t i) {
    const dns::Name& apex = SlotAt(i).apex;
    return apex.FlatSize() == size &&
           dns::Name::FlatEquals(apex.FlatData(), flat, size);
  });
  if (index == base::OpenTable::kNil) return nullptr;
  ZoneEntry& slot = SlotAt(index);
  if (slot.expires_at <= now) {
    // The slot keeps its contents (and their capacity) until a Put
    // overwrites every field; nothing reads it while it is unindexed.
    table_.Erase(hash, [&](std::uint32_t v) { return v == index; });
    free_.push_back(index);
    return nullptr;
  }
  return &slot;
}

ZoneEntry* InfraCache::Get(const dns::Name& apex, sim::TimeUs now) {
  return GetView(apex.CachedHash(), apex.FlatData(), apex.FlatSize(), now);
}

ZoneEntry* InfraCache::DeepestEnclosing(const dns::Name& qname,
                                        sim::TimeUs now) {
  // Every suffix of qname is a trailing slice of its flat bytes, so the
  // walk from deepest to root just advances a pointer one label at a time
  // and hashes the remainder — no Suffix() temporaries.
  const std::uint8_t* p = qname.FlatData();
  const std::uint8_t* const end = p + qname.FlatSize();
  for (;;) {
    const auto size = static_cast<std::size_t>(end - p);
    if (ZoneEntry* entry = GetView(dns::Name::HashFlat(p, size), p, size,
                                   now)) {
      return entry;
    }
    if (p == end) break;
    p += 1 + *p;
  }
  return nullptr;
}

std::uint32_t NsecRangeCache::FindZone(const dns::Name& apex) const {
  return table_.Find(apex.CachedHash(), [&](std::uint32_t index) {
    return zones_[index].apex.Equals(apex);
  });
}

void NsecRangeCache::Put(const dns::Name& zone_apex, Range range) {
  std::uint32_t index = FindZone(zone_apex);
  if (index == base::OpenTable::kNil) {
    index = static_cast<std::uint32_t>(zones_.size());
    zones_.push_back(ZoneRanges{zone_apex, {}});
    table_.Insert(zone_apex.CachedHash(), index);
  }
  // Owner == next is a degenerate (empty) range; owner == qname proofs
  // from NODATA white lies are stored too but can never cover anything.
  dns::Name prev = range.prev;
  zones_[index].ranges[std::move(prev)] = std::move(range);
}

bool NsecRangeCache::Covers(const dns::Name& zone_apex, const dns::Name& qname,
                            sim::TimeUs now) {
  const std::uint32_t index = FindZone(zone_apex);
  if (index == base::OpenTable::kNil) return false;
  RangeMap& ranges = zones_[index].ranges;
  auto it = ranges.upper_bound(qname);  // first range with prev > qname
  if (it == ranges.begin()) return false;
  --it;
  const Range& range = it->second;
  if (range.expires_at <= now) {
    ranges.erase(it);
    return false;
  }
  if (range.prev.Compare(qname) >= 0) return false;  // prev must exist
  // Wrapping range: next == apex means "past the last name in the zone".
  bool covered = range.next.Equals(zone_apex)
                     ? qname.IsSubdomainOf(zone_apex)
                     : qname.Compare(range.next) < 0;
  if (covered) ++hits_;
  return covered;
}

std::size_t NsecRangeCache::size() const {
  std::size_t total = 0;
  for (const auto& zone : zones_) total += zone.ranges.size();
  return total;
}

}  // namespace clouddns::resolver
