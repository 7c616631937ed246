// The capture query engine, ENTRADA's role: register many (filter, key,
// aggregate) specs and execute them all in ONE pass over a capture,
// chunked across worker threads. Every table and figure in the paper is a
// composition of these specs.
//
// Each record is tested against every spec's filter (enum-dispatched, no
// virtual call for the common shapes), keys are computed as integer codes,
// and per-thread partial states merge at the end. String keys materialize
// once per *group* at merge time, never per record.
//
// Determinism: partial states are merged in worker order and every
// aggregate is either order-independent (counts, HLL, sets) or sorted
// downstream (CDF quantiles), so results are identical for every thread
// count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "capture/record.h"
#include "capture/sharded.h"
#include "entrada/cdf.h"
#include "entrada/hll.h"
#include "net/asdb.h"

namespace clouddns::entrada {

using Filter = std::function<bool(const capture::CaptureRecord&)>;
using ValueFn =
    std::function<std::optional<double>(const capture::CaptureRecord&)>;

/// Group-by result; ordered map for stable report rendering.
struct Aggregation {
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t total = 0;

  [[nodiscard]] std::uint64_t Of(const std::string& key) const {
    auto it = counts.find(key);
    return it == counts.end() ? 0 : it->second;
  }
  [[nodiscard]] double Share(const std::string& key) const {
    return total == 0 ? 0.0
                      : static_cast<double>(Of(key)) /
                            static_cast<double>(total);
  }
};

/// Enum-dispatched filter. A record passes when the kind-predicate holds
/// AND the optional tag constraint matches AND the custom functor (if any)
/// accepts. The common paper filters never touch a std::function.
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
  std::optional<std::uint16_t> tag;  ///< Restrict to one tag value.
  Filter custom;                     ///< Extra predicate; must be pure.

  static FilterSpec All() { return {}; }
  static FilterSpec Valid() { return {Kind::kValid, {}, nullptr}; }
  static FilterSpec Junk() { return {Kind::kJunk, {}, nullptr}; }
  static FilterSpec Udp() { return {Kind::kUdp, {}, nullptr}; }
  static FilterSpec Tcp() { return {Kind::kTcp, {}, nullptr}; }
  static FilterSpec V4() { return {Kind::kV4, {}, nullptr}; }
  static FilterSpec V6() { return {Kind::kV6, {}, nullptr}; }
  static FilterSpec Tagged(std::uint16_t value) {
    return {Kind::kAll, value, nullptr};
  }
};

/// Enum-dispatched key extractor. Every kind codes the key as an integer,
/// rendered to a string only at merge time, except kSrcAddress, which
/// keys the binary address and is valid only for Distinct and Sketch.
struct KeySpec {
  enum class Kind : std::uint8_t {
    kQtype,
    kRcode,
    kTransport,
    kFamily,      ///< "IPv4" / "IPv6"
    kSrcAddress,  ///< Exact source address (Distinct and Sketch only).
    kSrcAs,       ///< "AS15169" via the plan's AS database; "AS?" unrouted.
    kTag,         ///< The plan's per-record tag, rendered by the tag namer.
  };
  Kind kind = Kind::kQtype;

  static KeySpec Qtype() { return {Kind::kQtype}; }
  static KeySpec RcodeKey() { return {Kind::kRcode}; }
  static KeySpec Transport() { return {Kind::kTransport}; }
  static KeySpec Family() { return {Kind::kFamily}; }
  static KeySpec SrcAddress() { return {Kind::kSrcAddress}; }
  static KeySpec SrcAs() { return {Kind::kSrcAs}; }
  static KeySpec Tag() { return {Kind::kTag}; }
};

/// Computes a small integer label for a record from its source AS alone
/// (nullopt = unrouted), e.g. the provider that owns the AS. That purity
/// lets the plan memoize the AS lookup AND the tag per distinct source
/// address — source addresses repeat thousands of times in a capture, so
/// the per-record cost collapses to one hash probe.
using AsnTagFn = std::function<std::uint16_t(std::optional<net::Asn>)>;
/// Renders a tag value for report keys ("Google", ...).
using TagNamer = std::function<std::string(std::uint16_t)>;

class AnalysisPlan {
 public:
  using Handle = std::size_t;

  /// AS database for KeySpec::SrcAs and the tag. Must outlive Execute().
  void SetAsDatabase(const net::AsDatabase& asdb) { asdb_ = &asdb; }
  /// Per-record tag + its renderer; enables FilterSpec::Tagged and
  /// KeySpec::Tag. The plan caches (AS, tag) per source address. Requires
  /// SetAsDatabase; must be pure — it runs concurrently on many records.
  void SetAsnTag(AsnTagFn fn, TagNamer namer) {
    asn_tag_fn_ = std::move(fn);
    tag_namer_ = std::move(namer);
  }

  // --- Spec registration (before Execute) ---
  Handle Count(FilterSpec filter);
  /// GroupBy and GroupByMonth throw std::invalid_argument for
  /// KeySpec::SrcAddress: per-address groups are not a paper statistic.
  Handle GroupBy(FilterSpec filter, KeySpec key);
  Handle GroupByMonth(FilterSpec filter, KeySpec key);
  Handle Distinct(FilterSpec filter, KeySpec key);
  Handle Sketch(FilterSpec filter, KeySpec key);
  Handle Collect(FilterSpec filter, ValueFn value);

  /// One fused pass over `records`, scanning the shard buffers in place
  /// on `threads` workers (0 = hardware concurrency, honoring
  /// CLOUDDNS_THREADS; workers run on the shared base::ThreadPool). A
  /// shard longer than ceil(size / workers) records is cut into pieces of
  /// that size, and the pieces are dealt to the workers round-robin in
  /// shard order; partials fold in worker order. Every aggregate is
  /// order-independent or sorted downstream (see the header comment), so
  /// results are bit-identical for every thread count and every sharding
  /// of the same records. Custom filters and value functors must be pure.
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

  [[nodiscard]] Handle Add(Op op, FilterSpec filter, KeySpec key,
                           ValueFn value);
  void Scan(const capture::CaptureRecord* first, const capture::CaptureRecord* last,
            Partial& partial) const;
  void Fold(std::vector<Partial>& partials);

  const net::AsDatabase* asdb_ = nullptr;
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
};

}  // namespace clouddns::entrada
