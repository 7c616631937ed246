// Dataset scenarios: one RunScenario() call reproduces one cell of the
// paper's Table 3 — a capture week at .nl, .nz, or B-Root in 2018/2019/
// 2020 — by building the zones, authoritative servers, provider fleets and
// client workload for that vantage/year and streaming the client queries
// through the full resolver/network/server stack. Everything the analysis
// layer needs (captures, AS database, PTR records, the Google public-DNS
// ranges) comes back in the ScenarioResult. All of it but the capture and
// the run totals is a function of the config alone, which
// BuildScenarioContext() rebuilds without simulating.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "capture/record.h"
#include "capture/sharded.h"
#include "cloud/providers.h"
#include "net/asdb.h"
#include "net/prefix_trie.h"
#include "sim/clock.h"

namespace clouddns::cloud {

enum class Vantage { kNl, kNz, kRoot };

/// Canned packet-loss schedules, materialized against the scenario's
/// capture window in MaterializeFaults().
enum class FaultPreset {
  kNone,
  /// Persistent lossy transit: 25% query / 15% response loss on every UDP
  /// path for the whole window.
  kLossyPath,
  /// The Feb 3-27 2020 .nz event as a load problem: response-heavy loss
  /// during the cyclic-dependency weeks. Queries still reach (and are
  /// captured by) the .nz servers; the lost answers drive the resolver
  /// retry engine, amplifying the TLD's observed traffic (Fig. 3b).
  kNzEventLoss,
};

[[nodiscard]] std::string_view ToString(Vantage vantage);

/// Start of the paper's capture window for a vantage/year (Table 2/3).
[[nodiscard]] sim::TimeUs WeekStart(Vantage vantage, int year);
/// Window length: one week for the ccTLDs, one DITL day for B-Root.
[[nodiscard]] sim::TimeUs WindowLength(Vantage vantage);

/// Resolver fleet scale vs the paper's Tables 4/6 source counts.
inline constexpr double kFleetScale = 0.01;
/// "Other AS" population scale vs the paper's ~37-42k ASes.
inline constexpr double kAsScale = 0.01;

struct ScenarioConfig {
  Vantage vantage = Vantage::kNl;
  int year = 2020;
  /// Client queries streamed through the resolvers (upstream traffic is
  /// whatever cache misses produce). Scaled-down from the paper's billions.
  std::uint64_t client_queries = 400'000;
  /// Zone size scale vs the paper's Table 2 (5.9M .nl domains, ...).
  double zone_scale = 0.002;
  std::uint64_t seed = 20201027;
  /// Worker threads executing the simulation shards (0 = use
  /// hardware_concurrency, overridable via CLOUDDNS_THREADS). Output is
  /// bit-identical for every thread count — see `shards`.
  std::size_t threads = 0;
  /// Number of simulation shards the client population is partitioned
  /// into. Each shard owns a disjoint slice of the resolver engines, its
  /// own authoritative-server instances (caches/RRL are shard-local), and
  /// a seed substream derived as SubstreamSeed(seed, shard_id). The shard
  /// count — never the thread count — determines the traffic realization,
  /// so results depend on (seed, shards) only and any `threads` value
  /// replays the identical simulation.
  std::size_t shards = 16;
  /// Cache-warmup traffic streamed in the day before the capture window
  /// opens (as a fraction of client_queries). Real resolvers enter the
  /// week with warm caches; without this, one-time TLD discovery floods
  /// short windows with maintenance queries. Warmup captures are dropped.
  double warmup_fraction = 0.30;
  /// Day/night traffic modulation (0 = flat; 0.45 gives the ~2.5:1
  /// peak-to-trough swing typical of national TLD traffic [35]).
  double diurnal_amplitude = 0.45;

  /// Longitudinal override of the capture window (Fig. 3).
  std::optional<sim::TimeUs> window_start;
  std::optional<sim::TimeUs> window_end;
  /// Fig. 3 mode: only Google's fleet issues queries.
  bool google_only = false;
  /// Fig. 3b: inject the Feb-2020 .nz cyclic-dependency misconfiguration.
  bool inject_cyclic_event = false;
  /// What-if knob: scales every measured provider's client load relative
  /// to the AS long tail (1.0 = the calibrated 2018-2020 world). Used to
  /// project how the Fig. 1 concentration responds to further
  /// consolidation.
  double consolidation_factor = 1.0;
  /// Ablation: disable QNAME minimization on every engine.
  bool qmin_override_off = false;
  /// Ablation: disable response rate limiting on the TLD servers.
  bool rrl_override_off = false;

  /// Packet-loss schedule. Faults change the traffic realization, so a
  /// preset other than kNone participates in the dataset cache key; every
  /// fault-free key (and cache) is unaffected.
  FaultPreset fault_preset = FaultPreset::kNone;
};

/// Resolver-side robustness totals summed over every engine in the run:
/// how much extra upstream work the fault schedule induced.
struct RobustnessCounters {
  std::uint64_t upstream_queries = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t failovers = 0;
  friend bool operator==(const RobustnessCounters&,
                         const RobustnessCounters&) = default;
};

struct ServerMeta {
  std::uint32_t id = 0;
  std::string label;
  bool captured = false;
  bool anycast = true;
  std::size_t sites = 1;
  friend bool operator==(const ServerMeta&, const ServerMeta&) = default;
};

struct ScenarioResult {
  ScenarioConfig config;
  sim::TimeUs window_start = 0;
  sim::TimeUs window_end = 0;

  /// Captured records from every captured server, still partitioned by
  /// simulation shard (each shard buffer time-ordered). Scan shard-wise
  /// where possible; TimeOrderedCopy() yields the single stream in
  /// (time, shard) order when a consumer truly needs time order.
  capture::ShardedCapture records;

  std::size_t zone_domain_count = 0;   ///< Registered domains (Table 2).
  /// Registered domains per TLD ("nl" -> count), for Table 2.
  std::map<std::string, std::size_t> zone_domains_by_tld;
  std::vector<ServerMeta> servers;     ///< NS set (Table 2).

  net::AsDatabase asdb;                ///< For source->AS enrichment.
  net::PrefixMap<bool> google_public;  ///< Advertised public ranges (Tab 4).
  /// PTR records of every resolver frontend (Fig. 5 rDNS substrate).
  std::vector<std::pair<net::IpAddress, dns::Name>> ptr_records;

  std::uint64_t client_queries_issued = 0;
  std::uint64_t leaf_queries = 0;      ///< Uncaptured SLD-auth traffic.
  RobustnessCounters robustness;       ///< Fleet-wide retry/timeout totals.
  /// Storage-integrity events from the dataset cache's self-healing load
  /// path: corrupt artifacts detected, quarantined, rebuilt from
  /// simulation, and re-verified (DESIGN.md §14). All zero on a clean
  /// warm or cold load.
  base::io::StorageCounters storage;
  /// Client queries routed to each provider's fleet (calibration aid).
  std::map<std::string, std::uint64_t> client_queries_per_provider;
};

[[nodiscard]] ScenarioResult RunScenario(const ScenarioConfig& config);

/// Every field of RunScenario(config)'s result except `records`, the run
/// totals and `storage`: the window, the zone counts, the server table,
/// the AS database, Google's public ranges and the PTR records. Builds no
/// zone, network, server or resolver engine, and RunScenario fills those
/// fields through the same code, so the two always agree; `threads` does
/// not change them.
[[nodiscard]] ScenarioResult BuildScenarioContext(const ScenarioConfig& config);

/// Provider attribution used by all analyses: source address -> provider
/// via the AS database (Table 1 ASes), everything else kOther.
[[nodiscard]] Provider ProviderOfAsn(net::Asn asn);

}  // namespace clouddns::cloud
