// Deterministic fault injection for the simulated network.
//
// A FaultPlan is a declarative schedule of packet loss per direction,
// site, transport and time window, and a FaultInjector turns it into
// per-packet decisions. The injector is STATELESS: every decision derives
// a private Rng from SubstreamSeed(seed, decision-key) where the key
// hashes the packet's (site, transport, time, source), so the same packet
// always draws the same fate regardless of which thread executes its
// shard, or how many other packets were evaluated before it. That is what
// lets a fault-enabled scenario keep the DESIGN.md §7 contract:
// byte-identical output for every thread count.
//
// Loss semantics (the part that matters for capture analysis):
//   - query loss drops the packet BEFORE the server: no server work, no
//     capture record, the resolver sees kLostQuery;
//   - response loss drops the packet AFTER the server answered: the
//     server did the work and the capture records the exchange, only the
//     resolver never hears back (kLostResponse). Retry traffic is
//     therefore visible to ENTRADA exactly as it was at the .nz
//     authoritatives during the Feb-2020 event (Fig. 3b).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dns/types.h"
#include "net/ip.h"
#include "sim/clock.h"
#include "sim/latency.h"
#include "sim/random.h"

namespace clouddns::sim {

/// Wildcard for rules that apply at every site.
inline constexpr SiteId kAnySite = 0xfffffffeu;

/// Half-open activity interval [start, end).
struct FaultWindow {
  TimeUs start = 0;
  TimeUs end = ~TimeUs{0};

  [[nodiscard]] bool Contains(TimeUs t) const { return t >= start && t < end; }
  friend bool operator==(const FaultWindow&, const FaultWindow&) = default;
};

/// Direction-aware packet loss toward (and back from) a site.
struct LossRule {
  SiteId site = kAnySite;
  /// Restrict to one transport; nullopt applies to both UDP and TCP.
  std::optional<dns::Transport> transport;
  FaultWindow window;
  double query_loss = 0.0;     ///< P(query never reaches the server).
  double response_loss = 0.0;  ///< P(response lost after server work).
  friend bool operator==(const LossRule&, const LossRule&) = default;
};

struct FaultPlan {
  std::vector<LossRule> loss;

  [[nodiscard]] bool empty() const { return loss.empty(); }
  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// The fate of one packet, combined over every matching rule.
struct FaultDecision {
  bool lose_query = false;
  bool lose_response = false;
};

class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(seed) {}

  [[nodiscard]] bool enabled() const { return !plan_.empty(); }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Decides the fate of one packet toward `site`. Pure function of the
  /// arguments, the plan, and the seed.
  [[nodiscard]] FaultDecision Evaluate(SiteId site, dns::Transport transport,
                                       TimeUs now,
                                       const net::Endpoint& src) const;

 private:
  FaultPlan plan_;
  std::uint64_t seed_;
};

}  // namespace clouddns::sim
