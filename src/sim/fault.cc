#include "sim/fault.h"

#include "base/hash.h"

namespace clouddns::sim {
namespace {

bool SiteMatches(SiteId rule_site, SiteId site) {
  return rule_site == kAnySite || rule_site == site;
}

bool TransportMatches(const std::optional<dns::Transport>& rule_transport,
                      dns::Transport transport) {
  return !rule_transport.has_value() || *rule_transport == transport;
}

/// Independent combination of loss probabilities from several matching
/// rules: surviving all of them is the product of the survivals.
void CombineLoss(double& accumulated, double p) {
  accumulated = 1.0 - (1.0 - accumulated) * (1.0 - p);
}

/// The decision key mixes everything that identifies one packet: site,
/// transport, arrival time, and the source endpoint (two resolutions at
/// the same instant come from different source ports). Retransmissions
/// happen at later times, so each retry flips a fresh coin.
std::uint64_t DecisionKey(SiteId site, dns::Transport transport, TimeUs now,
                          const net::Endpoint& src) {
  using base::kFnvPrime;
  std::uint64_t key = static_cast<std::uint64_t>(site);
  key = key * kFnvPrime ^ (transport == dns::Transport::kTcp ? 0x7cbull : 0ull);
  key = key * kFnvPrime ^ now;
  key = key * kFnvPrime ^ net::IpAddressHash{}(src.address);
  key = key * kFnvPrime ^ static_cast<std::uint64_t>(src.port);
  return key;
}

}  // namespace

FaultDecision FaultInjector::Evaluate(SiteId site, dns::Transport transport,
                                      TimeUs now,
                                      const net::Endpoint& src) const {
  FaultDecision decision;
  double query_loss = 0.0;
  double response_loss = 0.0;
  for (const LossRule& rule : plan_.loss) {
    if (!SiteMatches(rule.site, site) ||
        !TransportMatches(rule.transport, transport) ||
        !rule.window.Contains(now)) {
      continue;
    }
    CombineLoss(query_loss, rule.query_loss);
    CombineLoss(response_loss, rule.response_loss);
  }
  if (query_loss <= 0.0 && response_loss <= 0.0) return decision;

  // One private generator per decision, three coins in a fixed order. The
  // middle coin is unused, but it must still be drawn: it keeps the
  // response coin at its place in the stream, which the pinned digests of
  // every faulted scenario depend on.
  Rng rng(SubstreamSeed(seed_, DecisionKey(site, transport, now, src)));
  const double query_coin = rng.NextDouble();
  (void)rng.NextDouble();
  const double response_coin = rng.NextDouble();
  if (query_coin < query_loss) {
    decision.lose_query = true;
    return decision;
  }
  decision.lose_response = response_coin < response_loss;
  return decision;
}

}  // namespace clouddns::sim
