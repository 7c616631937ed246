#include "resolver/resolver.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include <algorithm>
#include <cmath>

namespace clouddns::resolver {
namespace {

constexpr double kDefaultSrttUs = 50'000.0;  // optimistic prior: 50 ms
constexpr sim::TimeUs kMaxPositiveTtl = 86'400ull * sim::kMicrosPerSecond;
constexpr sim::TimeUs kDefaultNegativeTtl = 600ull * sim::kMicrosPerSecond;
constexpr sim::TimeUs kMaxInfraTtl = 172'800ull * sim::kMicrosPerSecond;
/// Retransmission-timeout band (resolver-style floor and ceiling).
constexpr sim::TimeUs kRtoMinUs = 300'000;
constexpr sim::TimeUs kRtoMaxUs = 5'000'000;
/// Sharpness of the dual-stack preference: P(v6) is proportional to
/// (1/rtt6)^sharpness. Higher = stronger preference for the faster family.
constexpr double kFamilyPreferenceSharpness = 4.0;

sim::TimeUs NegativeTtlFrom(const dns::Message& response) {
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RrType::kSoa) {
      const auto& soa = std::get<dns::SoaRdata>(rr.rdata);
      std::uint32_t ttl = std::min(rr.ttl, soa.minimum);
      return std::max<sim::TimeUs>(1, ttl) * sim::kMicrosPerSecond;
    }
  }
  return kDefaultNegativeTtl;
}

sim::TimeUs PositiveTtlFrom(std::span<const dns::ResourceRecord> records) {
  std::uint32_t ttl = 0xffffffffu;
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  sim::TimeUs ttl_us =
      static_cast<sim::TimeUs>(std::max<std::uint32_t>(ttl, 1)) *
      sim::kMicrosPerSecond;
  return std::min(ttl_us, kMaxPositiveTtl);
}

/// A referral is a non-authoritative NOERROR with NS records in authority.
const dns::ResourceRecord* ReferralNs(const dns::Message& response) {
  if (response.header.aa || response.header.rcode != dns::Rcode::kNoError) {
    return nullptr;
  }
  if (!response.answers.empty()) return nullptr;
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RrType::kNs) return &rr;
  }
  return nullptr;
}

}  // namespace

RecursiveResolver::RecursiveResolver(sim::Network& network,
                                     ResolverConfig config,
                                     std::vector<net::IpAddress> root_v4,
                                     std::vector<net::IpAddress> root_v6)
    : network_(&network),
      config_(std::move(config)),
      cache_(config_.max_cache_entries),
      rng_(config_.seed) {
  root_.apex = dns::Name{};
  root_.addresses = std::move(root_v4);
  root_.v4_count = static_cast<std::uint32_t>(root_.addresses.size());
  root_.addresses.insert(root_.addresses.end(), root_v6.begin(),
                         root_v6.end());
  root_.expires_at = ~sim::TimeUs{0};  // hints never expire
  // The root trust anchor is configured, so from a validator's view the
  // root always "has a DS".
  root_.ds = ZoneEntry::Ds::kPresent;
}

RecursiveResolver::Result RecursiveResolver::Resolve(const dns::Name& qname,
                                                     dns::RrType qtype,
                                                     sim::TimeUs now) {
  int budget = config_.max_upstream_queries;
  const std::uint64_t upstream_before = upstream_total_;
  const std::uint64_t retransmits_before = retransmit_total_;
  const std::uint64_t timeouts_before = timeout_total_;
  const std::uint64_t failovers_before = failover_total_;
  Result result = ResolveInternal(qname, qtype, now, budget, 0);
  result.upstream_queries = static_cast<int>(upstream_total_ - upstream_before);
  result.retransmits = static_cast<int>(retransmit_total_ - retransmits_before);
  result.timeouts = static_cast<int>(timeout_total_ - timeouts_before);
  result.failovers = static_cast<int>(failover_total_ - failovers_before);
  return result;
}

RecursiveResolver::Result RecursiveResolver::ResolveInternal(
    const dns::Name& qname, dns::RrType qtype, sim::TimeUs now, int& budget,
    int depth) {
  Result result;
  if (depth > kMaxDepth) return result;  // glueless chain too deep

  if (cache_.IsNxDomain(qname, now)) {
    result.rcode = dns::Rcode::kNxDomain;
    result.from_cache = true;
    return result;
  }
  if (const CachedAnswer* hit = cache_.Get(qname, qtype, now)) {
    result.rcode = hit->rcode;
    result.records = hit->records;  // borrowed from the cache entry
    result.from_cache = true;
    return result;
  }

  const std::uint64_t flight_hash = qname.CachedHash();
  for (const InFlight& flight : in_flight_) {
    if (flight.hash == flight_hash && flight.type == qtype &&
        flight.name.Equals(qname)) {
      return result;  // dependency cycle (e.g. mutually glueless NS)
    }
  }
  in_flight_.push_back(InFlight{flight_hash, qtype, qname});
  struct PopGuard {
    std::vector<InFlight>& stack;
    ~PopGuard() { stack.pop_back(); }
  } pop_guard{in_flight_};

  ZoneEntry* zone = infra_.DeepestEnclosing(qname, now);
  if (zone == nullptr) zone = &root_;

  if (config_.validate_dnssec) FetchDnskeyIfNeeded(*zone, now, budget);

  std::size_t reveal = std::min(zone->apex.LabelCount() + 1,
                                qname.LabelCount());
  // RFC 7816 §3 fallback: after a failure on the minimized walk the
  // resolver retries once with the full query name. During the .nz cyclic-
  // dependency event this is what turned Google's minimized NS walk into
  // the flood of full A/AAAA queries the TLD observed (Fig. 3b).
  bool qmin_fallback = false;

  for (int iteration = 0; iteration < 24; ++iteration) {
    dns::Name q_name = qname;
    dns::RrType q_type = qtype;
    if (QminActive(now) && !qmin_fallback &&
        reveal < qname.LabelCount()) {
      q_name = qname.Suffix(reveal);
      q_type = dns::RrType::kNs;
    }
    const bool is_final = q_name.Equals(qname) && q_type == qtype;

    if (config_.aggressive_nsec_caching && config_.validate_dnssec &&
        nsec_cache_.Covers(zone->apex, q_name, now)) {
      // RFC 8198: a validated cached NSEC range proves the name cannot
      // exist — answer NXDOMAIN without contacting the authoritative.
      cache_.PutNxDomain(q_name, now + kDefaultNegativeTtl);
      result.rcode = dns::Rcode::kNxDomain;
      return result;
    }

    // Valid until this frame's next Send (see `responses_`): the referral's
    // `cut` below survives the DS fetch and the glueless chase.
    dns::Message& response = responses_[depth];
    if (!Send(*zone, q_name, q_type, now, budget, response)) {
      return result;  // SERVFAIL
    }

    if (response.header.rcode == dns::Rcode::kNxDomain) {
      // A minimized intermediate NXDOMAIN proves the full name cannot
      // exist either.
      cache_.PutNxDomain(q_name, now + NegativeTtlFrom(response));
      if (config_.aggressive_nsec_caching && config_.validate_dnssec) {
        for (const auto& rr : response.authorities) {
          if (rr.type != dns::RrType::kNsec) continue;
          const auto& nsec = std::get<dns::NsecRdata>(rr.rdata);
          NsecRangeCache::Range range;
          range.prev = rr.name;
          range.next = nsec.next;
          range.expires_at =
              now + static_cast<sim::TimeUs>(std::max<std::uint32_t>(
                        rr.ttl, 1)) *
                        sim::kMicrosPerSecond;
          nsec_cache_.Put(zone->apex, std::move(range));
        }
      }
      result.rcode = dns::Rcode::kNxDomain;
      return result;
    }
    if (response.header.rcode != dns::Rcode::kNoError) {
      return result;  // REFUSED/SERVFAIL upstream -> SERVFAIL
    }

    if (const dns::ResourceRecord* ns = ReferralNs(response)) {
      const dns::Name& cut = ns->name;
      if (!cut.IsSubdomainOf(zone->apex) || cut.Equals(zone->apex) ||
          !qname.IsSubdomainOf(cut)) {
        return result;  // malformed referral
      }
      ZoneEntry& child = referral_zones_[depth];
      ZoneFromReferral(response, cut, now, child);
      if (config_.validate_dnssec) {
        if (config_.explicit_ds_fetch) {
          FetchDsIfNeeded(*zone, child, now, budget);
        } else if (zone->ds == ZoneEntry::Ds::kPresent) {
          // DO=1 referrals from signed parents carry the child DS set; use
          // it instead of a separate DS round trip.
          bool present = false;
          for (const auto& rr : response.authorities) {
            if (rr.type == dns::RrType::kDs && rr.name.Equals(cut)) {
              present = true;
              break;
            }
          }
          child.ds = present ? ZoneEntry::Ds::kPresent : ZoneEntry::Ds::kAbsent;
        } else {
          child.ds = ZoneEntry::Ds::kAbsent;
        }
      }
      if (!EnsureAddresses(child, response, now, budget, depth)) {
        if (QminActive(now) && !qmin_fallback) {
          qmin_fallback = true;  // retry this zone with the full qname
          continue;
        }
        return result;  // glueless chase failed (cycle or budget)
      }
      zone = &infra_.Put(child);
      if (config_.validate_dnssec && zone->ds == ZoneEntry::Ds::kPresent) {
        FetchDnskeyIfNeeded(*zone, now, budget);
      }
      reveal = std::min(std::max(reveal, zone->apex.LabelCount() + 1),
                        qname.LabelCount());
      continue;
    }

    if (!response.answers.empty()) {
      if (is_final) {
        // The cache keeps the one copy; the result borrows the response,
        // which stays untouched until the next call into the resolver.
        CachedAnswer answer;
        answer.rcode = dns::Rcode::kNoError;
        answer.records = response.answers;
        answer.expires_at = now + PositiveTtlFrom(response.answers);
        cache_.Put(qname, qtype, std::move(answer));
        result.rcode = dns::Rcode::kNoError;
        result.records = response.answers;
        return result;
      }
      // Intermediate minimized NS answered positively: the label exists;
      // reveal the next one.
      ++reveal;
      continue;
    }

    // NODATA.
    if (is_final) {
      CachedAnswer answer;
      answer.rcode = dns::Rcode::kNoError;
      answer.expires_at = now + NegativeTtlFrom(response);
      cache_.Put(qname, qtype, std::move(answer));
      result.rcode = dns::Rcode::kNoError;
      return result;
    }
    ++reveal;  // RFC 7816: NODATA on the minimized query -> keep walking
  }
  return result;
}

bool RecursiveResolver::Send(const ZoneEntry& zone, const dns::Name& qname,
                             dns::RrType qtype, sim::TimeUs now, int& budget,
                             dns::Message& response) {
  if (budget <= 0) return false;

  // Pick the egress host FIRST (uniform over the frontend pool), then let
  // the host's capabilities decide the family: single-stack hosts have no
  // choice; dual-stack hosts prefer the family with the lower smoothed
  // RTT, modulated by operator policy. This is what ties the fleet's
  // dual-stack composition (Table 6) to its traffic split (Table 5).
  const EgressHost* host = nullptr;
  bool can_v4 = false, can_v6 = false;
  for (int attempt = 0; attempt < 8 && host == nullptr; ++attempt) {
    const EgressHost& candidate =
        config_.hosts[rng_.NextBelow(config_.hosts.size())];
    can_v4 = candidate.v4.has_value() && !zone.v4().empty();
    can_v6 = candidate.v6.has_value() && !zone.v6().empty();
    if (can_v4 || can_v6) host = &candidate;
  }
  if (host == nullptr) return false;

  auto estimate = [this, &host](const net::IpAddress& addr) {
    const SrttState* state = FindSrtt(SrttKey(host->site, addr));
    return state != nullptr ? std::optional<double>(state->srtt)
                            : std::nullopt;
  };

  // Server selection (Müller et al. [30]): resolvers favour low-RTT
  // authoritatives but keep probing the rest — modelled as uniform choice
  // within an RTT band of the best estimate, plus 8% pure exploration.
  // The *nameserver* is chosen family-agnostically (its best family's
  // estimate ranks it); the family is decided afterwards on that server's
  // address pair. Coupling them this way keeps each NS's captured traffic
  // an unbiased sample of the resolver's family mix.
  std::vector<Candidate>& candidates = candidates_;
  candidates.clear();
  const std::span<const net::IpAddress> v4 = zone.v4();
  const std::span<const net::IpAddress> v6 = zone.v6();
  const bool paired = can_v4 && can_v6 && v4.size() == v6.size();
  if (paired) {
    for (std::size_t i = 0; i < v4.size(); ++i) {
      candidates.push_back({&v4[i], &v6[i]});
    }
  } else if (can_v4) {
    for (const auto& addr : v4) candidates.push_back({&addr, nullptr});
  } else {
    for (const auto& addr : v6) candidates.push_back({nullptr, &addr});
  }

  auto candidate_srtt = [&estimate](const Candidate& c) {
    std::optional<double> best;
    for (const net::IpAddress* addr : {c.v4, c.v6}) {
      if (addr == nullptr) continue;
      auto e = estimate(*addr);
      if (e && (!best || *e < *best)) best = e;
    }
    return best.value_or(kDefaultSrttUs);
  };

  const Candidate* picked = &candidates.front();
  if (candidates.size() > 1) {
    if (rng_.NextDouble() < 0.08) {
      picked = &candidates[rng_.NextBelow(candidates.size())];
    } else {
      // Each candidate's estimate is looked up once and kept for the band.
      double best = 1e18;
      for (auto& c : candidates) {
        c.srtt = candidate_srtt(c);
        best = std::min(best, c.srtt);
      }
      std::vector<const Candidate*>& band = band_;
      band.clear();
      for (const auto& c : candidates) {
        if (c.srtt <= best * 1.6) band.push_back(&c);
      }
      picked = band[rng_.NextBelow(band.size())];
    }
  }

  // Timeout/retry engine. On a lossless network the first transmission is
  // always answered and none of the machinery below fires — the rng draw
  // sequence and SRTT arithmetic on that path are exactly the historical
  // ones, which is what keeps fault-free runs byte-identical.
  // Retransmissions are charged `elapsed` wait time (the accumulated RTOs)
  // so retried traffic lands later in the capture, exactly as the
  // authoritative's vantage point would record it.
  sim::TimeUs elapsed = 0;
  std::vector<const Candidate*>& tried = tried_;
  tried.clear();
  const Candidate* current = picked;
  for (int failover = 0;; ++failover) {
    tried.push_back(current);

    // Family choice on the current server: dual-stack hosts weigh the two
    // families by smoothed RTT (an unmeasured family inherits the other's
    // estimate so exploration is unbiased), single-stack hosts have no say.
    bool use_v6;
    if (can_v4 && can_v6 && current->v4 != nullptr &&
        current->v6 != nullptr) {
      auto m4 = estimate(*current->v4);
      auto m6 = estimate(*current->v6);
      double rtt4 = m4.value_or(m6.value_or(kDefaultSrttUs));
      double rtt6 = m6.value_or(m4.value_or(kDefaultSrttUs));
      double w4 = std::pow(1.0 / rtt4, kFamilyPreferenceSharpness);
      double w6 = std::pow(1.0 / rtt6, kFamilyPreferenceSharpness) *
                  config_.v6_weight_multiplier;
      use_v6 = rng_.NextDouble() < w6 / (w4 + w6);
    } else {
      use_v6 = !(can_v4 && current->v4 != nullptr);
    }
    const net::IpAddress* server = use_v6 ? current->v6 : current->v4;
    net::Endpoint src{
        use_v6 ? *host->v6 : *host->v4,
        static_cast<std::uint16_t>(1024 + rng_.NextBelow(60000))};

    std::optional<dns::EdnsInfo> edns;
    if (config_.edns_udp_size > 0) {
      edns = dns::EdnsInfo{config_.edns_udp_size, config_.validate_dnssec, 0};
    }
    dns::Message& query = query_msg_;
    query.ResetAsQueryFor(static_cast<std::uint16_t>(rng_.Next()), qname,
                          qtype, edns);
    dns::WireBuffer& wire = query_wire_;
    query.EncodeInto(wire);

    const std::uint64_t srtt_key = SrttKey(host->site, *server);
    for (int attempt = 0;; ++attempt) {
      --budget;
      ++upstream_total_;
      sim::Network::SendResult& sent = send_scratch_;
      network_->Query(src, host->site, *server, dns::Transport::kUdp, wire,
                      now + elapsed, sent);
      if (sent.delivered()) {
        if (attempt == 0) {
          // Karn's algorithm: only first-transmission exchanges feed the
          // estimator — a retransmitted exchange's RTT is ambiguous.
          const double rtt = static_cast<double>(sent.rtt_us);
          if (SrttState* state = FindSrtt(srtt_key)) {
            state->rttvar =
                0.75 * state->rttvar + 0.25 * std::abs(state->srtt - rtt);
            state->srtt = 0.75 * state->srtt + 0.25 * rtt;
          } else {
            InsertSrtt(srtt_key, SrttState{rtt, rtt / 2.0});
          }
        }

        if (!dns::Message::DecodeInto(sent.response.data(),
                                      sent.response.size(), response) ||
            response.header.id != query.header.id) {
          return false;
        }
        if (response.header.tc) {
          // Truncated UDP answer: retry over TCP (RFC 1035 §4.2.2). This
          // is also the RRL "slip" recovery path.
          if (budget <= 0) return false;
          --budget;
          ++upstream_total_;
          network_->Query(src, host->site, *server, dns::Transport::kTcp,
                          wire, now + elapsed, sent);
          if (!sent.delivered()) return false;
          if (!dns::Message::DecodeInto(sent.response.data(),
                                        sent.response.size(), response) ||
              response.header.id != query.header.id) {
            return false;
          }
        }
        return true;
      }
      if (!sent.timed_out()) return false;  // no route / server dropped

      // Lost query or lost response: wait out the RTO, then retransmit
      // with Karn backoff until this server's attempts or the overall
      // budget run out.
      ++timeout_total_;
      elapsed += RtoFor(srtt_key, attempt);
      if (attempt < config_.retry.max_retransmits && budget > 0) {
        ++retransmit_total_;
        continue;
      }
      break;  // server declared unresponsive
    }
    PenalizeSrtt(srtt_key);

    if (failover >= config_.retry.max_failovers || budget <= 0) {
      return false;
    }
    // NS-set failover: try the lowest-SRTT candidate not yet attempted
    // (the penalty above keeps dead servers at the back of the line for
    // subsequent resolutions too).
    const Candidate* next = nullptr;
    double next_srtt = 0.0;
    for (const auto& c : candidates) {
      if (std::find(tried.begin(), tried.end(), &c) != tried.end()) continue;
      double e = candidate_srtt(c);
      if (next == nullptr || e < next_srtt) {
        next = &c;
        next_srtt = e;
      }
    }
    if (next == nullptr) return false;  // whole NS set unresponsive
    ++failover_total_;
    current = next;
  }
}

RecursiveResolver::SrttState* RecursiveResolver::FindSrtt(
    std::uint64_t srtt_key) {
  // The index compares the stored 64-bit hash, here the whole key, before
  // it calls the predicate: a hash match is a key match.
  const std::uint32_t index =
      srtt_index_.Find(srtt_key, [](std::uint32_t) { return true; });
  return index != base::OpenTable::kNil ? &srtt_[index] : nullptr;
}

RecursiveResolver::SrttState& RecursiveResolver::InsertSrtt(
    std::uint64_t srtt_key, SrttState initial) {
  srtt_index_.Insert(srtt_key, static_cast<std::uint32_t>(srtt_.size()));
  return srtt_.emplace_back(initial);
}

sim::TimeUs RecursiveResolver::RtoFor(std::uint64_t srtt_key, int attempt) {
  // RFC 6298 adapted to DNS: RTO = SRTT + 4·RTTVAR, 1 s before any sample,
  // clamped to the band, then doubled per retransmission.
  double rto_us = 1'000'000.0;
  if (const SrttState* state = FindSrtt(srtt_key)) {
    rto_us = state->srtt + 4.0 * state->rttvar;
  }
  auto rto = static_cast<sim::TimeUs>(rto_us);
  rto = std::clamp(rto, kRtoMinUs, kRtoMaxUs);
  rto <<= std::min(attempt, 10);
  return std::min(rto, kRtoMaxUs);
}

void RecursiveResolver::PenalizeSrtt(std::uint64_t srtt_key) {
  SrttState* state = FindSrtt(srtt_key);
  if (state == nullptr) {
    state = &InsertSrtt(srtt_key,
                        SrttState{kDefaultSrttUs, kDefaultSrttUs / 2.0});
  }
  state->srtt = std::min(state->srtt * 2.0, static_cast<double>(kRtoMaxUs));
}

void RecursiveResolver::ZoneFromReferral(const dns::Message& response,
                                         const dns::Name& cut, sim::TimeUs now,
                                         ZoneEntry& entry) {
  entry.apex = cut;
  std::uint32_t ns_ttl = 3600;
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RrType::kNs && rr.name.Equals(cut)) ns_ttl = rr.ttl;
  }
  // Glue in referral order, A before AAAA.
  entry.addresses.clear();
  for (const auto& rr : response.additionals) {
    if (rr.type == dns::RrType::kA) {
      entry.addresses.push_back(std::get<dns::ARdata>(rr.rdata).address);
    }
  }
  entry.v4_count = static_cast<std::uint32_t>(entry.addresses.size());
  for (const auto& rr : response.additionals) {
    if (rr.type == dns::RrType::kAaaa) {
      entry.addresses.push_back(std::get<dns::AaaaRdata>(rr.rdata).address);
    }
  }
  sim::TimeUs ttl_us = static_cast<sim::TimeUs>(std::max<std::uint32_t>(
                           ns_ttl, 60)) *
                       sim::kMicrosPerSecond;
  entry.expires_at = now + std::min(ttl_us, kMaxInfraTtl);
  entry.ds = ZoneEntry::Ds::kUnknown;
  entry.dnskey_expires_at = 0;
}

bool RecursiveResolver::EnsureAddresses(ZoneEntry& zone,
                                        const dns::Message& referral,
                                        sim::TimeUs now, int& budget,
                                        int depth) {
  if (!zone.addresses.empty()) return true;
  // Glueless delegation: resolve the nameserver names themselves, in the
  // order the referral lists them. Resolvers fetch both A and AAAA for
  // their upstream targets when dual-stack.
  bool want_v6 = false;
  for (const auto& host : config_.hosts) want_v6 |= host.v6.has_value();

  for (const auto& ns : referral.authorities) {
    if (ns.type != dns::RrType::kNs || !ns.name.Equals(zone.apex)) continue;
    const dns::Name& ns_name = std::get<dns::NsRdata>(ns.rdata).nameserver;
    // Each nested result's records are borrowed: read them before the
    // next call. Addresses stay empty until one NS yields any, so the A
    // answers land first and the v4/v6 split is exact.
    Result a = ResolveInternal(ns_name, dns::RrType::kA, now, budget,
                               depth + 1);
    if (a.rcode == dns::Rcode::kNoError) {
      for (const auto& rr : a.records) {
        if (rr.type == dns::RrType::kA) {
          zone.addresses.push_back(std::get<dns::ARdata>(rr.rdata).address);
        }
      }
    }
    zone.v4_count = static_cast<std::uint32_t>(zone.addresses.size());
    if (want_v6) {
      Result aaaa = ResolveInternal(ns_name, dns::RrType::kAaaa, now, budget,
                                    depth + 1);
      if (aaaa.rcode == dns::Rcode::kNoError) {
        for (const auto& rr : aaaa.records) {
          if (rr.type == dns::RrType::kAaaa) {
            zone.addresses.push_back(
                std::get<dns::AaaaRdata>(rr.rdata).address);
          }
        }
      }
    }
    if (!zone.addresses.empty()) return true;
  }
  return false;
}

void RecursiveResolver::FetchDsIfNeeded(const ZoneEntry& parent,
                                        ZoneEntry& child, sim::TimeUs now,
                                        int& budget) {
  if (child.ds != ZoneEntry::Ds::kUnknown) return;
  // Only zones whose parent chain is secure need a DS; an insecure parent
  // makes the child provably insecure too.
  if (parent.ds != ZoneEntry::Ds::kPresent) {
    child.ds = ZoneEntry::Ds::kAbsent;
    return;
  }
  if (!Send(parent, child.apex, dns::RrType::kDs, now, budget,
            fetch_response_)) {
    return;  // leave unknown; retried on next descent
  }
  bool present = false;
  for (const auto& rr : fetch_response_.answers) {
    if (rr.type == dns::RrType::kDs) {
      present = true;
      break;
    }
  }
  child.ds = present ? ZoneEntry::Ds::kPresent : ZoneEntry::Ds::kAbsent;
}

void RecursiveResolver::FetchDnskeyIfNeeded(ZoneEntry& zone, sim::TimeUs now,
                                            int& budget) {
  if (zone.ds != ZoneEntry::Ds::kPresent) return;
  if (zone.dnskey_expires_at > now) return;
  if (!Send(zone, zone.apex, dns::RrType::kDnskey, now, budget,
            fetch_response_)) {
    return;
  }
  std::uint32_t ttl = 3600;
  for (const auto& rr : fetch_response_.answers) {
    if (rr.type == dns::RrType::kDnskey) ttl = rr.ttl;
  }
  zone.dnskey_expires_at =
      now + static_cast<sim::TimeUs>(ttl) * sim::kMicrosPerSecond;
}

}  // namespace clouddns::resolver
