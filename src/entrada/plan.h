// Fused analysis plans: register many (filter, key, aggregate) specs and
// execute them all in ONE pass over a capture buffer, chunked across
// worker threads.
//
// The drivers in src/analysis re-scan the same multi-hundred-thousand-row
// buffer 4-10 times per table — once per statistic — and pay a std::function
// call plus a heap-allocated key string per record per scan. A plan walks
// the buffer once: each record is tested against every spec's filter
// (enum-dispatched, no virtual call for the common shapes), keys are
// computed as integer codes, and per-thread partial states merge at the
// end. String keys materialize once per *group* at merge time instead of
// once per record.
//
// Determinism: partial states are merged in chunk order and every
// aggregate is either order-independent (counts, HLL, sets) or sorted
// downstream (CDF quantiles), so results are identical for every thread
// count.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "capture/record.h"
#include "capture/sharded.h"
#include "entrada/analytics.h"
#include "entrada/cdf.h"
#include "entrada/hll.h"
#include "net/asdb.h"

namespace clouddns::entrada {

/// Enum-dispatched filter. A record passes when the kind-predicate holds
/// AND every set optional constraint (server, tag) matches AND the custom
/// functor (if any) accepts. The common paper filters never touch a
/// std::function.
struct FilterSpec {
  enum class Kind : std::uint8_t {
    kAll,    ///< Accept everything.
    kValid,  ///< NOERROR responses (§3's "valid" traffic).
    kJunk,   ///< Non-NOERROR responses.
    kUdp,
    kTcp,
    kV4,
    kV6,
  };
  Kind kind = Kind::kAll;
  std::optional<std::uint32_t> server_id;  ///< Restrict to one NS.
  std::optional<std::uint16_t> tag;        ///< Restrict to one tag value.
  Filter custom;                           ///< Fallback escape hatch.

  static FilterSpec All() { return {}; }
  static FilterSpec Valid() { return {Kind::kValid, {}, {}, nullptr}; }
  static FilterSpec Junk() { return {Kind::kJunk, {}, {}, nullptr}; }
  static FilterSpec Udp() { return {Kind::kUdp, {}, {}, nullptr}; }
  static FilterSpec Tcp() { return {Kind::kTcp, {}, {}, nullptr}; }
  static FilterSpec V4() { return {Kind::kV4, {}, {}, nullptr}; }
  static FilterSpec V6() { return {Kind::kV6, {}, {}, nullptr}; }
  static FilterSpec Server(std::uint32_t id) {
    FilterSpec spec;
    spec.server_id = id;
    return spec;
  }
  static FilterSpec Tagged(std::uint16_t value) {
    FilterSpec spec;
    spec.tag = value;
    return spec;
  }
  static FilterSpec Custom(Filter filter) {
    FilterSpec spec;
    spec.custom = std::move(filter);
    return spec;
  }

  [[nodiscard]] FilterSpec& WithServer(std::uint32_t id) {
    server_id = id;
    return *this;
  }
  [[nodiscard]] FilterSpec& WithTag(std::uint16_t value) {
    tag = value;
    return *this;
  }
};

/// Enum-dispatched key extractor. Every kind except kSrcAddress/kCustom
/// codes the key as an integer; strings are rendered only at merge time.
struct KeySpec {
  enum class Kind : std::uint8_t {
    kQtype,
    kRcode,
    kTransport,
    kFamily,      ///< "IPv4" / "IPv6"
    kSrcAddress,  ///< Exact source address (string-keyed).
    kSrcAs,       ///< "AS15169" via the plan's AS database; "AS?" unrouted.
    kTag,         ///< The plan's per-record tag, rendered by the tag namer.
    kCustom,
  };
  Kind kind = Kind::kQtype;
  KeyFn custom;

  static KeySpec Qtype() { return {Kind::kQtype, nullptr}; }
  static KeySpec RcodeKey() { return {Kind::kRcode, nullptr}; }
  static KeySpec Transport() { return {Kind::kTransport, nullptr}; }
  static KeySpec Family() { return {Kind::kFamily, nullptr}; }
  static KeySpec SrcAddress() { return {Kind::kSrcAddress, nullptr}; }
  static KeySpec SrcAs() { return {Kind::kSrcAs, nullptr}; }
  static KeySpec Tag() { return {Kind::kTag, nullptr}; }
  static KeySpec Custom(KeyFn fn) { return {Kind::kCustom, std::move(fn)}; }
};

/// Computes a small integer label for a record — e.g. the provider that
/// owns its source AS. Evaluated lazily, at most once per record, and
/// shared by every spec that filters or groups on the tag.
using TagFn = std::function<std::uint16_t(const capture::CaptureRecord&)>;
/// A tag that is a pure function of the record's source AS (nullopt =
/// unrouted). Declaring that purity lets the plan memoize the AS lookup
/// AND the tag per distinct source address — source addresses repeat
/// thousands of times in a capture, so the per-record cost collapses to
/// one hash probe.
using AsnTagFn = std::function<std::uint16_t(std::optional<net::Asn>)>;
/// Renders a tag value for report keys ("Google", ...).
using TagNamer = std::function<std::string(std::uint16_t)>;

class AnalysisPlan {
 public:
  using Handle = std::size_t;

  /// AS database for KeySpec::SrcAs (and anything the tag fn needs is the
  /// tag fn's own business). Must outlive Execute().
  void SetAsDatabase(const net::AsDatabase& asdb) { asdb_ = &asdb; }
  /// Per-record tag + its renderer; enables FilterSpec::Tagged and
  /// KeySpec::Tag. Must be pure — it runs concurrently on many records.
  void SetTag(TagFn fn, TagNamer namer) {
    tag_fn_ = std::move(fn);
    tag_namer_ = std::move(namer);
  }
  /// AS-pure tag variant: the tag is derived from the source AS alone, so
  /// the plan caches (AS, tag) per source address. Requires SetAsDatabase.
  /// A full SetTag, if also present, takes precedence.
  void SetAsnTag(AsnTagFn fn, TagNamer namer) {
    asn_tag_fn_ = std::move(fn);
    tag_namer_ = std::move(namer);
  }

  // --- Spec registration (before Execute) ---
  Handle Count(FilterSpec filter);
  Handle GroupBy(FilterSpec filter, KeySpec key);
  Handle GroupByMonth(FilterSpec filter, KeySpec key);
  Handle Distinct(FilterSpec filter, KeySpec key);
  Handle Sketch(FilterSpec filter, KeySpec key);
  Handle Collect(FilterSpec filter, ValueFn value);

  /// One fused pass over `records`, chunked over `threads` workers
  /// (0 = hardware concurrency, honoring CLOUDDNS_THREADS; workers run on
  /// the shared base::ThreadPool). Results are bit-identical for every
  /// thread count. Custom functors must be pure.
  void Execute(const capture::CaptureBuffer& records, std::size_t threads = 0);

  /// Shard-wise fused pass: scans the shard buffers in place, paying
  /// neither the K-way merge nor the merged-buffer allocation. Worker w
  /// owns shards s ≡ w (mod workers) in increasing shard order and
  /// partials fold in worker order, so results are byte-identical to
  /// Execute(records.FlattenCopy()) at every thread count (every aggregate
  /// is order-independent or sorted downstream — see the header comment).
  void Execute(const capture::ShardedCapture& records,
               std::size_t threads = 0);

  // --- Result accessors (after Execute) ---
  [[nodiscard]] std::uint64_t CountResult(Handle h) const;
  [[nodiscard]] const Aggregation& GroupResult(Handle h) const;
  [[nodiscard]] const std::map<std::string, Aggregation>& MonthResult(
      Handle h) const;
  [[nodiscard]] std::uint64_t DistinctResult(Handle h) const;
  [[nodiscard]] const Hll& SketchResult(Handle h) const;
  [[nodiscard]] Cdf& CdfResult(Handle h);

 private:
  enum class Op : std::uint8_t {
    kCount,
    kGroup,
    kMonth,
    kDistinct,
    kSketch,
    kCdf,
  };
  struct Spec {
    Op op;
    FilterSpec filter;
    KeySpec key;
    ValueFn value;
    std::size_t slot = 0;  ///< Index into the per-op result array.
  };

  struct Partial;  // Per-worker accumulation state (plan.cc).

  /// A contiguous slice of records (one chunk of a flat buffer, or one
  /// whole shard). A worker's unit of scan work.
  struct ScanRange {
    const capture::CaptureRecord* first;
    const capture::CaptureRecord* last;
  };

  [[nodiscard]] Handle Add(Op op, FilterSpec filter, KeySpec key,
                           ValueFn value);
  void Scan(const capture::CaptureRecord* first, const capture::CaptureRecord* last,
            Partial& partial) const;
  /// Shared back end of both Execute overloads: one worker per entry,
  /// scanning its ranges in order on the shared pool, then Fold.
  void ExecuteRanges(const std::vector<std::vector<ScanRange>>& per_worker);
  void Fold(std::vector<Partial>& partials);

  const net::AsDatabase* asdb_ = nullptr;
  TagFn tag_fn_;
  AsnTagFn asn_tag_fn_;
  TagNamer tag_namer_;

  std::vector<Spec> specs_;
  std::size_t slots_[6] = {0, 0, 0, 0, 0, 0};  ///< Next slot per Op.

  // Results, indexed by spec slot.
  std::vector<std::uint64_t> counts_;
  std::vector<Aggregation> groups_;
  std::vector<std::map<std::string, Aggregation>> months_;
  std::vector<std::uint64_t> distincts_;
  std::vector<Hll> sketches_;
  std::vector<Cdf> cdfs_;
  bool executed_ = false;
};

}  // namespace clouddns::entrada
