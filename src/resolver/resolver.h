// The iterative (recursive-resolving) DNS resolver engine.
//
// One RecursiveResolver models one resolver *backend* (a shared cache) that
// egresses through a pool of frontend hosts — which is how large cloud
// resolver farms look from an authoritative server's vantage point: few
// caches, many source addresses. All behaviors the paper measures arise
// here mechanistically:
//   - cache-miss-only traffic to authoritatives (answer + infra caches),
//   - QNAME minimization (RFC 7816) with a configurable rollout instant,
//   - DNSSEC validation fetch patterns (explicit DS per delegation at the
//     parent, DNSKEY per zone per TTL),
//   - EDNS(0) buffer-size policy and TCP fallback on truncated answers,
//   - dual-stack server selection preferring the lower-RTT family,
//   - glueless-delegation chasing with cycle detection (the .nz Feb 2020
//     misconfiguration event in Fig. 3b).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "base/lifetime.h"
#include "base/open_table.h"
#include "dns/message.h"
#include "resolver/cache.h"
#include "sim/network.h"
#include "sim/random.h"

namespace clouddns::resolver {

/// One egress frontend: a v4 and/or v6 address at a site. Dual-stack hosts
/// are what the paper identifies via matching PTR records (§4.3).
struct EgressHost {
  std::optional<net::IpAddress> v4;
  std::optional<net::IpAddress> v6;
  sim::SiteId site = 0;
};

/// Timeout/retry policy, active when upstream queries are lost to fault
/// injection (sim::FaultInjector). On a lossless network none of this ever
/// fires, so the defaults change nothing for fault-free simulations.
struct RetryConfig {
  /// Retransmissions per server after the initial send. Timers follow
  /// RFC 6298 adapted to DNS: RTO = SRTT + 4·RTTVAR (clamped below),
  /// doubled per retransmission (Karn backoff), and retransmitted
  /// exchanges never feed the RTT estimator (Karn's algorithm).
  int max_retransmits = 2;
  /// Additional servers of the NS set tried after one is declared
  /// unresponsive; each unresponsive server's SRTT is penalized so future
  /// selections deprioritize it.
  int max_failovers = 2;
};

struct ResolverConfig {
  std::vector<EgressHost> hosts;
  bool qname_minimization = false;
  /// Q-min activates at this instant (0 = from the beginning); models
  /// Google's Dec 2019 rollout.
  sim::TimeUs qmin_enabled_at = 0;
  bool validate_dnssec = false;
  /// Aggressive NSEC caching (RFC 8198): synthesize NXDOMAIN locally from
  /// validated denial ranges. Requires validation. This is what absorbs
  /// Chromium-style random-TLD junk inside large public resolvers before
  /// it reaches the root (§4.2.3).
  bool aggressive_nsec_caching = false;
  /// Validation style: when true the resolver probes the parent with
  /// explicit DS queries while building the chain of trust (the pattern
  /// that makes Cloudflare's DS share at TLDs so visible, Fig. 2d); when
  /// false it consumes the DS set served inside DO=1 referrals.
  bool explicit_ds_fetch = false;
  /// EDNS(0) advertised UDP payload size; 0 disables EDNS entirely.
  std::uint16_t edns_udp_size = 4096;
  /// Operator policy multiplier on the IPv6 weight: >1 prefers v6 beyond
  /// what RTT alone justifies (Facebook), <1 avoids v6 despite dual-stack
  /// frontends (Microsoft).
  double v6_weight_multiplier = 1.0;
  std::size_t max_cache_entries = 1 << 20;
  /// Upstream-query budget per client query (loop/cycle guard).
  int max_upstream_queries = 40;
  RetryConfig retry;
  std::uint64_t seed = 1;
};

class RecursiveResolver {
 public:
  /// `root_v4`/`root_v6` are the root-server service addresses (hints).
  RecursiveResolver(sim::Network& network, ResolverConfig config,
                    std::vector<net::IpAddress> root_v4,
                    std::vector<net::IpAddress> root_v6);

  struct Result {
    dns::Rcode rcode = dns::Rcode::kServFail;
    bool from_cache = false;
    int upstream_queries = 0;  ///< Includes retransmits/failover probes.
    int retransmits = 0;       ///< Timeout-driven duplicate sends.
    int timeouts = 0;          ///< Upstream exchanges that got no answer.
    int failovers = 0;         ///< Servers abandoned for a sibling NS.
    /// The answer RRset, borrowed from the resolver: it points into the
    /// answer cache on a hit and into the decoded upstream response on a
    /// fresh answer, and stays valid until the next call into the
    /// resolver. Copy it out to keep it longer.
    std::span<const dns::ResourceRecord> records;
  };

  /// Resolves a client query at simulated time `now`. The result's
  /// `records` borrow from this resolver (see Result).
  Result Resolve(const dns::Name& qname, dns::RrType qtype, sim::TimeUs now)
      CLOUDDNS_LIFETIMEBOUND;

  [[nodiscard]] const ResolverConfig& config() const CLOUDDNS_LIFETIMEBOUND {
    return config_;
  }
  [[nodiscard]] std::uint64_t upstream_query_count() const {
    return upstream_total_;
  }
  [[nodiscard]] std::uint64_t retransmit_count() const {
    return retransmit_total_;
  }
  [[nodiscard]] std::uint64_t timeout_count() const { return timeout_total_; }
  [[nodiscard]] std::uint64_t failover_count() const {
    return failover_total_;
  }
  [[nodiscard]] const NsecRangeCache& nsec_cache() const
      CLOUDDNS_LIFETIMEBOUND {
    return nsec_cache_;
  }

 private:
  /// Deepest glueless-chase recursion ResolveInternal serves; one deeper
  /// fails without sending.
  static constexpr int kMaxDepth = 6;

  [[nodiscard]] bool QminActive(sim::TimeUs now) const {
    return config_.qname_minimization && now >= config_.qmin_enabled_at;
  }

  Result ResolveInternal(const dns::Name& qname, dns::RrType qtype,
                         sim::TimeUs now, int& budget, int depth);

  /// Sends one upstream query to the given zone's servers (with family and
  /// server selection, EDNS, and TCP retry on truncation) and decodes the
  /// answer into `response`. Returns false when no usable answer arrived;
  /// `response` is then unspecified.
  bool Send(const ZoneEntry& zone, const dns::Name& qname, dns::RrType qtype,
            sim::TimeUs now, int& budget, dns::Message& response);

  /// Ensures addresses for a zone's nameservers, chasing the NS targets
  /// that `referral` names for the zone's apex through full resolution
  /// (depth-limited, cycle-detected) when the referral carried no glue.
  bool EnsureAddresses(ZoneEntry& zone, const dns::Message& referral,
                       sim::TimeUs now, int& budget, int depth);

  /// Validator chain maintenance: DS fetch at the parent for a new cut,
  /// DNSKEY fetch per zone per TTL.
  void FetchDsIfNeeded(const ZoneEntry& parent, ZoneEntry& child,
                       sim::TimeUs now, int& budget);
  void FetchDnskeyIfNeeded(ZoneEntry& zone, sim::TimeUs now, int& budget);

  /// Overwrites every field of `entry` with the zone a referral response
  /// delegates to, reusing its address buffer.
  static void ZoneFromReferral(const dns::Message& response,
                               const dns::Name& cut, sim::TimeUs now,
                               ZoneEntry& entry);

  /// Per-(egress site, server address) RTT estimator state. `srtt` drives
  /// server/family selection exactly as before; `rttvar` additionally
  /// feeds the retransmission timer (RTO = srtt + 4·rttvar).
  struct SrttState {
    double srtt = 0.0;
    double rttvar = 0.0;
  };

  /// Retransmission timeout for one server at the given attempt index
  /// (Karn backoff: doubles per retransmission), clamped to the
  /// [300 ms, 5 s] band.
  [[nodiscard]] sim::TimeUs RtoFor(std::uint64_t srtt_key, int attempt);

  /// Marks a server unresponsive: doubles its SRTT (capped) so failover
  /// picks and all future selections deprioritize it.
  void PenalizeSrtt(std::uint64_t srtt_key);

  /// The estimator state under `srtt_key`, or null before its first sample.
  [[nodiscard]] SrttState* FindSrtt(std::uint64_t srtt_key);
  /// Adds state under an absent `srtt_key` and returns it.
  SrttState& InsertSrtt(std::uint64_t srtt_key, SrttState initial);

  sim::Network* network_;
  ResolverConfig config_;
  DnsCache cache_;
  InfraCache infra_;
  NsecRangeCache nsec_cache_;
  sim::Rng rng_;
  ZoneEntry root_;
  /// Smoothed RTT estimates (microseconds), keyed per (egress site,
  /// server address): sites see genuinely different RTTs to the same
  /// anycast service, and mixing their samples into one estimate would
  /// make the dual-stack preference a noise amplifier. A slab indexed by
  /// the key itself, which is already a hash: the index stores it whole,
  /// so the slab need not. Entries are never erased.
  std::vector<SrttState> srtt_;
  base::OpenTable srtt_index_;
  [[nodiscard]] static std::uint64_t SrttKey(sim::SiteId site,
                                             const net::IpAddress& addr) {
    return (static_cast<std::uint64_t>(site) * 0x9e3779b97f4a7c15ull) ^
           net::IpAddressHash{}(addr);
  }
  /// Names currently being resolved, for glueless-cycle detection. The
  /// recursion is depth-bounded, so this is a tiny LIFO stack scanned by
  /// cached hash + name equality — no string key is ever built.
  struct InFlight {
    std::uint64_t hash = 0;
    dns::RrType type = dns::RrType::kA;
    dns::Name name;
  };
  std::vector<InFlight> in_flight_;
  /// Dual-stack server-selection candidates for one upstream send.
  struct Candidate {
    const net::IpAddress* v4 = nullptr;
    const net::IpAddress* v6 = nullptr;
    /// The lower of the two families' smoothed RTTs, filled in when the
    /// RTT band is drawn.
    double srtt = 0.0;
  };
  /// Scratch state reused across Send calls (Send never recurses): the
  /// query message and its encoding, the network exchange result, and the
  /// server-selection working sets.
  dns::Message query_msg_;
  dns::WireBuffer query_wire_;
  sim::Network::SendResult send_scratch_;
  std::vector<Candidate> candidates_;
  std::vector<const Candidate*> band_;
  std::vector<const Candidate*> tried_;
  /// Answer messages the upstream exchanges decode into. ResolveInternal
  /// at depth d owns `responses_[d]` and reads it only until its next Send;
  /// a nested (glueless-chase) resolution writes only deeper slots, so a
  /// referral stays readable across the chase. The DS and DNSKEY fetches
  /// never nest and share `fetch_response_`. Decoding reuses each message's
  /// section slots and rdata buffers (dns::Message::DecodeInto), but keeps
  /// no high-water mark: DecodeInto trims every section to the decoded
  /// count with resize(), which destroys the slots past it and their rdata
  /// buffers, and a slot whose rdata type changes drops its buffer too. So
  /// an exchange allocates wherever a section is longer than in the
  /// previous message decoded into the same slot, or where a slot changes
  /// rdata type to one that owns a buffer.
  std::array<dns::Message, kMaxDepth + 1> responses_;
  dns::Message fetch_response_;
  /// The zone a referral at depth d delegates to, filled in place by
  /// ZoneFromReferral and copied into the infra cache only once its
  /// nameserver addresses are known. Same per-depth ownership as
  /// `responses_`: the glueless chase fills only deeper slots.
  std::array<ZoneEntry, kMaxDepth + 1> referral_zones_;
  std::uint64_t upstream_total_ = 0;
  std::uint64_t retransmit_total_ = 0;
  std::uint64_t timeout_total_ = 0;
  std::uint64_t failover_total_ = 0;
};

}  // namespace clouddns::resolver
