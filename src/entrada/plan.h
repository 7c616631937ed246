// The capture query engine, ENTRADA's role: register many (filter, key,
// aggregate) specs and execute them all in ONE pass over a capture,
// chunked across worker threads. Every table and figure in the paper is a
// composition of these specs.
//
// Every spec is plain data. Filters, keys and collected values are enums
// dispatched by a switch, so no spec makes an indirect call per record;
// keys are computed as integer codes, and per-thread partial states merge
// at the end. String keys materialize once per *group* at merge time,
// never per record. The only functions a caller supplies are the source
// tag and its namer: the tag is a pure function of the source address,
// memoized once per distinct address, and the namer runs once per
// distinct tag when results render.
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

/// Enum-dispatched filter. A record passes when the kind predicate holds
/// AND it carries every flag in `flags` AND, when set, it was captured at
/// `server` and its source's tag equals `tag`.
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
  /// Record flags; `flags` is a bitwise OR of them.
  enum Flag : std::uint8_t {
    kEdns = 1 << 0,  ///< The query carried an EDNS(0) OPT record.
    kTc = 1 << 1,    ///< The response had TC set.
  };
  Kind kind = Kind::kAll;
  std::uint8_t flags = 0;
  std::optional<std::uint32_t> server;  ///< Restrict to one server id.
  std::optional<std::uint32_t> tag;     ///< Restrict to one tag value.

  static FilterSpec All() { return {}; }
  static FilterSpec Valid() { return {Kind::kValid, 0, {}, {}}; }
  static FilterSpec Junk() { return {Kind::kJunk, 0, {}, {}}; }
  static FilterSpec Udp() { return {Kind::kUdp, 0, {}, {}}; }
  static FilterSpec Tcp() { return {Kind::kTcp, 0, {}, {}}; }
  static FilterSpec V4() { return {Kind::kV4, 0, {}, {}}; }
  static FilterSpec V6() { return {Kind::kV6, 0, {}, {}}; }
  static FilterSpec Tagged(std::uint32_t value) {
    return {Kind::kAll, 0, {}, value};
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
    kTag,         ///< The source's tag, rendered by the tag namer.
    kHour,        ///< UTC hour of the record's time: "2020-05-06T13".
  };
  Kind kind = Kind::kQtype;

  static KeySpec Qtype() { return {Kind::kQtype}; }
  static KeySpec RcodeKey() { return {Kind::kRcode}; }
  static KeySpec Transport() { return {Kind::kTransport}; }
  static KeySpec Family() { return {Kind::kFamily}; }
  static KeySpec SrcAddress() { return {Kind::kSrcAddress}; }
  static KeySpec SrcAs() { return {Kind::kSrcAs}; }
  static KeySpec Tag() { return {Kind::kTag}; }
  static KeySpec Hour() { return {Kind::kHour}; }
};

/// The per-record value Collect gathers into a CDF.
enum class ValueKind : std::uint8_t {
  kEdnsUdpSize,  ///< Advertised EDNS(0) UDP size (0 without EDNS).
  kTcpRttMs,     ///< TCP handshake RTT in ms; only TCP records with one.
  kQuerySize,    ///< Query message size in bytes.
};

/// Computes a small integer label for a source address, given the origin
/// AS the plan looked up for it (nullopt = unrouted): the provider that
/// owns the AS, say, or the host the address's PTR record names. It must
/// be a pure function of the address. That purity lets the plan memoize
/// the AS lookup AND the tag per distinct source address — source
/// addresses repeat thousands of times in a capture, so the per-record
/// cost collapses to one hash probe.
using SourceTagFn = std::function<std::uint32_t(const net::IpAddress&,
                                                std::optional<net::Asn>)>;
/// Renders a tag value for report keys ("Google", ...).
using TagNamer = std::function<std::string(std::uint32_t)>;

class AnalysisPlan {
 public:
  using Handle = std::size_t;

  /// AS database for KeySpec::SrcAs and the tag. Must outlive Execute().
  void SetAsDatabase(const net::AsDatabase& asdb) { asdb_ = &asdb; }
  /// Per-source tag + its renderer; enables FilterSpec::tag and
  /// KeySpec::Tag. The plan caches (AS, tag) per source address; the AS
  /// is nullopt for every source without SetAsDatabase. `fn` must be pure
  /// — it runs concurrently on many addresses. A null `namer` renders
  /// tags in decimal.
  void SetSourceTag(SourceTagFn fn, TagNamer namer = nullptr) {
    source_tag_fn_ = std::move(fn);
    tag_namer_ = std::move(namer);
  }

  // --- Spec registration (before Execute) ---
  Handle Count(FilterSpec filter);
  /// GroupBy, GroupByMonth and a keyed Collect throw std::invalid_argument
  /// for KeySpec::SrcAddress: per-address groups are not a paper statistic.
  Handle GroupBy(FilterSpec filter, KeySpec key);
  Handle GroupByMonth(FilterSpec filter, KeySpec key);
  Handle Distinct(FilterSpec filter, KeySpec key);
  Handle Sketch(FilterSpec filter, KeySpec key);
  /// One CDF of `value` over the passing records (read it with CdfResult),
  /// or with `key`, one CDF per key (read them with KeyedCdfResult).
  Handle Collect(FilterSpec filter, ValueKind value,
                 std::optional<KeySpec> key = std::nullopt);

  /// One fused pass over `records`, scanning the shard buffers in place
  /// on `threads` workers (0 = hardware concurrency, honoring
  /// CLOUDDNS_THREADS; workers run on the shared base::ThreadPool). A
  /// shard longer than ceil(size / workers) records is cut into pieces of
  /// that size, and the pieces are dealt to the workers round-robin in
  /// shard order; partials fold in worker order. Every aggregate is
  /// order-independent or sorted downstream (see the header comment), so
  /// results are bit-identical for every thread count and every sharding
  /// of the same records.
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
  [[nodiscard]] std::map<std::string, Cdf>& KeyedCdfResult(Handle h);

 private:
  enum class Op : std::uint8_t {
    kCount,
    kGroup,
    kMonth,
    kDistinct,
    kSketch,
    kCdf,
    kKeyedCdf,
  };
  static constexpr std::size_t kOps = 7;
  struct Spec {
    Op op;
    FilterSpec filter;
    KeySpec key;
    ValueKind value = ValueKind::kEdnsUdpSize;
    std::size_t slot = 0;  ///< Index into the per-op result array.
  };

  struct Partial;  // Per-worker accumulation state (plan.cc).

  [[nodiscard]] Handle Add(Op op, FilterSpec filter, KeySpec key,
                           ValueKind value = ValueKind::kEdnsUdpSize);
  [[nodiscard]] std::size_t Slots(Op op) const {
    return slots_[static_cast<std::size_t>(op)];
  }
  void Scan(const capture::CaptureRecord* first, const capture::CaptureRecord* last,
            Partial& partial) const;
  void Fold(std::vector<Partial>& partials);

  const net::AsDatabase* asdb_ = nullptr;
  SourceTagFn source_tag_fn_;
  TagNamer tag_namer_;

  std::vector<Spec> specs_;
  std::size_t slots_[kOps] = {};  ///< Next slot per Op.

  // Results, indexed by spec slot.
  std::vector<std::uint64_t> counts_;
  std::vector<Aggregation> groups_;
  std::vector<std::map<std::string, Aggregation>> months_;
  std::vector<std::uint64_t> distincts_;
  std::vector<Hll> sketches_;
  std::vector<Cdf> cdfs_;
  std::vector<std::map<std::string, Cdf>> keyed_cdfs_;
};

}  // namespace clouddns::entrada
