#include "entrada/plan.h"

// lint:hot-path
// Scan() runs once per (record, spec) pair over every capture a figure or
// table consumes — keep per-record work allocation-free; strings render
// only at Fold time, once per distinct key.

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "base/hash.h"
#include "base/threads.h"
#include "net/ip.h"
#include "sim/clock.h"

namespace clouddns::entrada {
namespace {

constexpr std::uint64_t kNoAs = ~0ull;  ///< Code for an unrouted source.

/// Months coded as (year << 4) | month; rendered at merge time.
// lint:allow(hot-alloc): runs once per distinct month at Fold time, not per record
[[nodiscard]] std::string RenderMonth(std::uint64_t code) {
  char buf[16];
  int n = std::snprintf(buf, sizeof buf, "%04d-%02u",
                        static_cast<int>(code >> 4),
                        static_cast<unsigned>(code & 0xf));
  // lint:allow(hot-alloc): one string per distinct month, merge-time only
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Hours coded as hours since the epoch; rendered at merge time.
// lint:allow(hot-alloc): runs once per distinct hour at Fold time, not per record
[[nodiscard]] std::string RenderHour(std::uint64_t code) {
  char buf[16];
  int n = std::snprintf(buf, sizeof buf, "T%02u",
                        static_cast<unsigned>(code % 24));
  // lint:allow(hot-alloc): one string per distinct hour, merge-time only
  std::string hour = sim::DateString(code * sim::kMicrosPerHour);
  hour.append(buf, static_cast<std::size_t>(n));
  return hour;
}

/// Memoized time -> month-code map; capture streams are time-sorted so
/// the cached range almost always hits.
struct MonthCoder {
  std::uint64_t Code(sim::TimeUs time) {
    if (time < lo_ || time >= hi_) {
      sim::CivilDate date = sim::CivilFromTime(time);
      lo_ = sim::TimeFromCivil({date.year, date.month, 1});
      hi_ = date.month == 12 ? sim::TimeFromCivil({date.year + 1, 1, 1})
                             : sim::TimeFromCivil({date.year, date.month + 1, 1});
      code_ = (static_cast<std::uint64_t>(date.year) << 4) | date.month;
    }
    return code_;
  }
  sim::TimeUs lo_ = 0, hi_ = 0;
  std::uint64_t code_ = 0;
};

/// Per-address memo shared by every record of a worker chunk: the origin
/// AS and (when a source tag is installed) the tag. Both are pure
/// functions of the address, so per-worker caches cannot perturb results.
struct CachedSrc {
  std::uint64_t asn_code = kNoAs;
  std::uint32_t tag = 0;
};
using SrcCache =
    std::unordered_map<net::IpAddress, CachedSrc, net::IpAddressHash>;

/// Lazy per-record derived values, computed at most once per record no
/// matter how many specs consume them.
struct RecordCtx {
  const capture::CaptureRecord& r;
  const net::AsDatabase* asdb;
  const SourceTagFn* source_tag_fn;
  SrcCache* src_cache;

  const CachedSrc* cached = nullptr;

  const CachedSrc& Cached() {
    if (cached == nullptr) {
      auto [it, inserted] = src_cache->try_emplace(r.src);
      if (inserted) {
        if (asdb != nullptr) {
          if (auto asn = asdb->OriginAs(r.src)) it->second.asn_code = *asn;
        }
        if (*source_tag_fn) {
          it->second.tag = (*source_tag_fn)(
              r.src, it->second.asn_code == kNoAs
                  ? std::nullopt
                  : std::optional<net::Asn>(
                        static_cast<net::Asn>(it->second.asn_code)));
        }
      }
      cached = &it->second;
    }
    return *cached;
  }

  std::uint64_t AsnCode() { return Cached().asn_code; }
  std::uint32_t Tag() { return Cached().tag; }
};

[[nodiscard]] bool Pass(const FilterSpec& filter, RecordCtx& ctx) {
  const capture::CaptureRecord& r = ctx.r;
  switch (filter.kind) {
    case FilterSpec::Kind::kAll: break;
    case FilterSpec::Kind::kValid:
      if (dns::IsJunkRcode(r.rcode)) return false;
      break;
    case FilterSpec::Kind::kJunk:
      if (!dns::IsJunkRcode(r.rcode)) return false;
      break;
    case FilterSpec::Kind::kUdp:
      if (r.transport != dns::Transport::kUdp) return false;
      break;
    case FilterSpec::Kind::kTcp:
      if (r.transport != dns::Transport::kTcp) return false;
      break;
    case FilterSpec::Kind::kV4:
      if (!r.src.is_v4()) return false;
      break;
    case FilterSpec::Kind::kV6:
      if (r.src.is_v4()) return false;
      break;
  }
  if ((filter.flags & FilterSpec::kEdns) != 0 && !r.has_edns) return false;
  if ((filter.flags & FilterSpec::kTc) != 0 && !r.tc) return false;
  if (filter.server && r.server_id != *filter.server) return false;
  if (filter.tag && ctx.Tag() != *filter.tag) return false;
  return true;
}

[[nodiscard]] std::uint64_t KeyCode(const KeySpec& key, RecordCtx& ctx) {
  const capture::CaptureRecord& r = ctx.r;
  switch (key.kind) {
    case KeySpec::Kind::kQtype:
      return static_cast<std::uint16_t>(r.qtype);
    case KeySpec::Kind::kRcode:
      return static_cast<std::uint8_t>(r.rcode);
    case KeySpec::Kind::kTransport:
      return static_cast<std::uint8_t>(r.transport);
    case KeySpec::Kind::kFamily:
      return r.src.is_v4() ? 0 : 1;
    case KeySpec::Kind::kSrcAs:
      return ctx.AsnCode();
    case KeySpec::Kind::kTag:
      return ctx.Tag();
    case KeySpec::Kind::kHour:
      return r.time_us / sim::kMicrosPerHour;
    case KeySpec::Kind::kSrcAddress:
      break;  // Keyed by the binary address, never coded.
  }
  return 0;
}

[[nodiscard]] std::optional<double> Value(ValueKind kind,
                                          const capture::CaptureRecord& r) {
  switch (kind) {
    case ValueKind::kEdnsUdpSize:
      return static_cast<double>(r.edns_udp_size);
    case ValueKind::kTcpRttMs:
      if (r.transport != dns::Transport::kTcp || r.tcp_handshake_rtt_us == 0) {
        return std::nullopt;
      }
      return static_cast<double>(r.tcp_handshake_rtt_us) / 1000.0;
    case ValueKind::kQuerySize:
      return static_cast<double>(r.query_size);
  }
  return std::nullopt;
}

}  // namespace

/// Per-worker accumulation state; one slot vector per Op, mirroring the
/// plan's own result arrays. Cache-line aligned: partials live in one
/// vector and workers mutate them concurrently, so without the padding
/// adjacent workers' hot counters would false-share a line.
struct alignas(64) AnalysisPlan::Partial {
  /// Group-by state over integer-coded keys.
  struct Group {
    std::unordered_map<std::uint64_t, std::uint64_t> coded;
    std::uint64_t total = 0;
  };
  /// Distinct state; a spec fills `addresses` (kSrcAddress) or `coded`.
  struct DistinctSet {
    std::unordered_set<std::uint64_t> coded;
    std::unordered_set<net::IpAddress, net::IpAddressHash> addresses;
    [[nodiscard]] std::size_t Size() const {
      return coded.size() + addresses.size();
    }
  };

  std::vector<std::uint64_t> counts;
  std::vector<Group> groups;
  std::vector<std::map<std::uint64_t, Group>> months;
  std::vector<DistinctSet> distincts;
  std::vector<Hll> sketches;
  std::vector<std::vector<double>> cdf_values;
  std::vector<std::unordered_map<std::uint64_t, std::vector<double>>>
      keyed_values;
  MonthCoder month_coder;
  SrcCache src_cache;
};

AnalysisPlan::Handle AnalysisPlan::Add(Op op, FilterSpec filter, KeySpec key,
                                       ValueKind value) {
  // Group keys are integer-coded; an address is not.
  if ((op == Op::kGroup || op == Op::kMonth || op == Op::kKeyedCdf) &&
      key.kind == KeySpec::Kind::kSrcAddress) {
    throw std::invalid_argument(
        "AnalysisPlan: source addresses are not a group key");
  }
  specs_.push_back(
      {op, filter, key, value, slots_[static_cast<std::size_t>(op)]++});
  return specs_.size() - 1;
}

AnalysisPlan::Handle AnalysisPlan::Count(FilterSpec filter) {
  return Add(Op::kCount, filter, {});
}
AnalysisPlan::Handle AnalysisPlan::GroupBy(FilterSpec filter, KeySpec key) {
  return Add(Op::kGroup, filter, key);
}
AnalysisPlan::Handle AnalysisPlan::GroupByMonth(FilterSpec filter,
                                                KeySpec key) {
  return Add(Op::kMonth, filter, key);
}
AnalysisPlan::Handle AnalysisPlan::Distinct(FilterSpec filter, KeySpec key) {
  return Add(Op::kDistinct, filter, key);
}
AnalysisPlan::Handle AnalysisPlan::Sketch(FilterSpec filter, KeySpec key) {
  return Add(Op::kSketch, filter, key);
}
AnalysisPlan::Handle AnalysisPlan::Collect(FilterSpec filter, ValueKind value,
                                           std::optional<KeySpec> key) {
  return key ? Add(Op::kKeyedCdf, filter, *key, value)
             : Add(Op::kCdf, filter, {}, value);
}

void AnalysisPlan::Scan(const capture::CaptureRecord* first,
                        const capture::CaptureRecord* last,
                        Partial& partial) const {
  for (const capture::CaptureRecord* record = first; record != last;
       ++record) {
    RecordCtx ctx{*record, asdb_, &source_tag_fn_, &partial.src_cache};
    for (const Spec& spec : specs_) {
      if (!Pass(spec.filter, ctx)) continue;
      switch (spec.op) {
        case Op::kCount:
          ++partial.counts[spec.slot];
          break;
        case Op::kGroup: {
          Partial::Group& group = partial.groups[spec.slot];
          ++group.coded[KeyCode(spec.key, ctx)];
          ++group.total;
          break;
        }
        case Op::kMonth: {
          Partial::Group& group =
              partial.months[spec.slot][partial.month_coder.Code(
                  record->time_us)];
          ++group.coded[KeyCode(spec.key, ctx)];
          ++group.total;
          break;
        }
        case Op::kDistinct: {
          Partial::DistinctSet& set = partial.distincts[spec.slot];
          if (spec.key.kind == KeySpec::Kind::kSrcAddress) {
            set.addresses.insert(record->src);
          } else {
            set.coded.insert(KeyCode(spec.key, ctx));
          }
          break;
        }
        case Op::kSketch:
          if (spec.key.kind == KeySpec::Kind::kSrcAddress) {
            partial.sketches[spec.slot].Add(record->src);
          } else {
            // Hash the code; HLL only needs a well-mixed 64-bit input.
            partial.sketches[spec.slot].AddHash(
                base::Mix64(KeyCode(spec.key, ctx) + base::kGoldenGamma));
          }
          break;
        case Op::kCdf:
          if (auto v = Value(spec.value, *record)) {
            partial.cdf_values[spec.slot].push_back(*v);
          }
          break;
        case Op::kKeyedCdf:
          if (auto v = Value(spec.value, *record)) {
            partial.keyed_values[spec.slot][KeyCode(spec.key, ctx)].push_back(
                *v);
          }
          break;
      }
    }
  }
}

namespace {

/// Key-code -> report string, shared by group and month rendering.
// lint:allow(hot-alloc): renders once per distinct key at Fold time, not per record
std::string RenderCode(KeySpec::Kind kind, std::uint64_t code,
                       const TagNamer& namer) {
  switch (kind) {
    case KeySpec::Kind::kQtype:
      // lint:allow(hot-alloc): merge-time key rendering, once per distinct code
      return std::string(ToString(static_cast<dns::RrType>(code)));
    case KeySpec::Kind::kRcode:
      // lint:allow(hot-alloc): merge-time key rendering, once per distinct code
      return std::string(ToString(static_cast<dns::Rcode>(code)));
    case KeySpec::Kind::kTransport:
      // lint:allow(hot-alloc): merge-time key rendering, once per distinct code
      return std::string(ToString(static_cast<dns::Transport>(code)));
    case KeySpec::Kind::kFamily:
      return code == 0 ? "IPv4" : "IPv6";
    case KeySpec::Kind::kSrcAs:
      return code == kNoAs ? "AS?" : "AS" + std::to_string(code);
    case KeySpec::Kind::kTag:
      return namer ? namer(static_cast<std::uint32_t>(code))
                   : std::to_string(code);
    case KeySpec::Kind::kHour:
      return RenderHour(code);
    default:
      return std::to_string(code);
  }
}

}  // namespace

void AnalysisPlan::Fold(std::vector<Partial>& partials) {
  // Reduce worker partials in chunk order, then render coded keys into the
  // string-keyed result structures exactly once per distinct key.
  Partial& merged = partials.front();
  for (std::size_t w = 1; w < partials.size(); ++w) {
    Partial& other = partials[w];
    for (std::size_t s = 0; s < merged.counts.size(); ++s) {
      merged.counts[s] += other.counts[s];
    }
    for (std::size_t s = 0; s < merged.groups.size(); ++s) {
      // lint:allow(unordered-iter): commutative += merge into a keyed map — visitation order cannot change any total
      for (const auto& [code, n] : other.groups[s].coded) {
        merged.groups[s].coded[code] += n;
      }
      merged.groups[s].total += other.groups[s].total;
    }
    for (std::size_t s = 0; s < merged.months.size(); ++s) {
      for (auto& [month, group] : other.months[s]) {
        Partial::Group& into = merged.months[s][month];
        // lint:allow(unordered-iter): commutative += merge into a keyed map — visitation order cannot change any total
        for (const auto& [code, n] : group.coded) into.coded[code] += n;
        into.total += group.total;
      }
    }
    for (std::size_t s = 0; s < merged.distincts.size(); ++s) {
      merged.distincts[s].coded.merge(other.distincts[s].coded);
      merged.distincts[s].addresses.merge(other.distincts[s].addresses);
    }
    for (std::size_t s = 0; s < merged.sketches.size(); ++s) {
      merged.sketches[s].Merge(other.sketches[s]);
    }
    for (std::size_t s = 0; s < merged.cdf_values.size(); ++s) {
      auto& into = merged.cdf_values[s];
      auto& from = other.cdf_values[s];
      into.insert(into.end(), from.begin(), from.end());
    }
    for (std::size_t s = 0; s < merged.keyed_values.size(); ++s) {
      for (auto& [code, from] : other.keyed_values[s]) {
        auto& into = merged.keyed_values[s][code];
        into.insert(into.end(), from.begin(), from.end());
      }
    }
  }

  counts_ = std::move(merged.counts);
  distincts_.clear();
  for (const auto& set : merged.distincts) distincts_.push_back(set.Size());
  sketches_ = std::move(merged.sketches);
  cdfs_.assign(merged.cdf_values.size(), Cdf{});
  for (std::size_t s = 0; s < merged.cdf_values.size(); ++s) {
    for (double v : merged.cdf_values[s]) cdfs_[s].Add(v);
  }

  auto render_group = [this](const Spec& spec, const Partial::Group& group) {
    Aggregation agg;
    // Sorted emission at the report boundary: coded keys leave the hash
    // map through an ordered copy, so rendered output can never pick up
    // hash-iteration order even if a renderer ever collides keys.
    std::map<std::uint64_t, std::uint64_t> ordered(group.coded.begin(),
                                                   group.coded.end());
    for (const auto& [code, n] : ordered) {
      agg.counts[RenderCode(spec.key.kind, code, tag_namer_)] += n;
    }
    agg.total = group.total;
    return agg;
  };
  groups_.assign(Slots(Op::kGroup), {});
  months_.assign(Slots(Op::kMonth), {});
  keyed_cdfs_.assign(Slots(Op::kKeyedCdf), {});
  for (const Spec& spec : specs_) {
    if (spec.op == Op::kGroup) {
      groups_[spec.slot] = render_group(spec, merged.groups[spec.slot]);
    } else if (spec.op == Op::kMonth) {
      for (const auto& [month, group] : merged.months[spec.slot]) {
        months_[spec.slot][RenderMonth(month)] = render_group(spec, group);
      }
    } else if (spec.op == Op::kKeyedCdf) {
      // Each key's samples land under its rendered key, and a Cdf sorts
      // its samples, so the hash map's visitation order cannot show.
      for (const auto& [code, values] : merged.keyed_values[spec.slot]) {
        Cdf& cdf = keyed_cdfs_[spec.slot][RenderCode(spec.key.kind, code,
                                                     tag_namer_)];
        for (double v : values) cdf.Add(v);
      }
    }
  }
}

void AnalysisPlan::Execute(const capture::ShardedCapture& records,
                          std::size_t threads) {
  // More workers than the pool has execution lanes cannot scan any faster;
  // they only multiply partial-state build and fold cost. Capping is pure
  // scheduling: results are invariant to the worker count either way.
  std::size_t workers = std::min(base::EffectiveThreads(threads),
                                 base::ThreadPool::Shared().lane_count());
  // Tiny inputs are not worth fanning out.
  if (records.size() < 4096) workers = 1;

  // The partition is a pure function of the shard sizes and `workers`,
  // never of scheduling. Shards of at most `piece` records stay whole and
  // go round-robin; a longer one (a single flat buffer, say) is cut so it
  // still spreads across every worker.
  struct ScanRange {
    const capture::CaptureRecord* first;
    const capture::CaptureRecord* last;
  };
  const std::size_t piece = (records.size() + workers - 1) / workers;
  std::vector<std::vector<ScanRange>> per_worker(workers);
  std::size_t next = 0;
  for (std::size_t s = 0; s < records.shard_count(); ++s) {
    const capture::CaptureBuffer& shard = records.shard(s);
    for (std::size_t first = 0; first < shard.size(); first += piece) {
      const std::size_t last = std::min(shard.size(), first + piece);
      per_worker[next++ % workers].push_back(
          {shard.data() + first, shard.data() + last});
    }
  }

  std::vector<Partial> partials(workers);
  for (Partial& partial : partials) {
    partial.counts.assign(Slots(Op::kCount), 0);
    partial.groups.resize(Slots(Op::kGroup));
    partial.months.resize(Slots(Op::kMonth));
    partial.distincts.resize(Slots(Op::kDistinct));
    partial.sketches.resize(Slots(Op::kSketch));
    partial.cdf_values.resize(Slots(Op::kCdf));
    partial.keyed_values.resize(Slots(Op::kKeyedCdf));
  }

  // Worker w scans only per_worker[w] into partials[w]; which pool thread
  // runs which worker index is unobservable, and Fold reduces in worker
  // order, so results are invariant to scheduling.
  base::ThreadPool::Shared().ParallelFor(
      workers, workers, [this, &per_worker, &partials](std::size_t w) {
        for (const ScanRange& range : per_worker[w]) {
          Scan(range.first, range.last, partials[w]);
        }
      });

  Fold(partials);
}

std::uint64_t AnalysisPlan::CountResult(Handle h) const {
  return counts_[specs_[h].slot];
}
const Aggregation& AnalysisPlan::GroupResult(Handle h) const {
  return groups_[specs_[h].slot];
}
// lint:allow(hot-alloc): result accessor returns the already-rendered month map
const std::map<std::string, Aggregation>& AnalysisPlan::MonthResult(
    Handle h) const {
  return months_[specs_[h].slot];
}
std::uint64_t AnalysisPlan::DistinctResult(Handle h) const {
  return distincts_[specs_[h].slot];
}
const Hll& AnalysisPlan::SketchResult(Handle h) const {
  return sketches_[specs_[h].slot];
}
Cdf& AnalysisPlan::CdfResult(Handle h) {
  return cdfs_[specs_[h].slot];
}
// lint:allow(hot-alloc): result accessor returns the already-rendered CDF map
std::map<std::string, Cdf>& AnalysisPlan::KeyedCdfResult(Handle h) {
  return keyed_cdfs_[specs_[h].slot];
}

}  // namespace clouddns::entrada
