#include "sim/network.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

namespace clouddns::sim {

void Network::RegisterServer(const net::IpAddress& service, SiteId site,
                             PacketHandler& handler) {
  services_[service].push_back(Instance{site, &handler});
}

void Network::SetDefaultRoute(SiteId site, PacketHandler& handler) {
  default_route_ = Instance{site, &handler};
}

void Network::Query(const net::Endpoint& src, SiteId src_site,
                    const net::IpAddress& dst, dns::Transport transport,
                    const dns::WireBuffer& query, TimeUs now,
                    SendResult& result) {
  result.status = SendStatus::kNoRoute;
  result.response.clear();
  result.rtt_us = 0;
  result.server_site = kNoSite;
  // Anycast catchment: the site with the lowest RTT from the source wins.
  // The family of the *destination service address* decides which latency
  // plane (v4 or v6) the packets traverse.
  const bool ipv6 = dst.is_v6();
  const Instance* best = nullptr;
  std::uint32_t best_rtt = 0;
  auto it = services_.find(dst);
  if (it != services_.end() && !it->second.empty()) {
    for (const Instance& instance : it->second) {
      std::uint32_t rtt = latency_.RttUs(src_site, instance.site, ipv6);
      if (best == nullptr || rtt < best_rtt) {
        best = &instance;
        best_rtt = rtt;
      }
    }
  } else if (default_route_.handler != nullptr) {
    best = &default_route_;
    best_rtt = latency_.RttUs(src_site, default_route_.site, ipv6);
  } else {
    return;  // kNoRoute
  }

  FaultDecision fate;
  if (faults_ != nullptr) {
    fate = faults_->Evaluate(best->site, transport, now, src);
  }
  if (fate.lose_query) {
    result.status = SendStatus::kLostQuery;
    result.server_site = best->site;
    return;
  }

  PacketContext ctx;
  ctx.src = src;
  ctx.transport = transport;
  ctx.server_site = best->site;
  std::uint32_t total_rtt = best_rtt;
  if (transport == dns::Transport::kTcp) {
    // SYN/SYN-ACK/ACK before the query: one extra round trip, and the
    // server observes the handshake RTT.
    ctx.handshake_rtt_us = best_rtt;
    total_rtt += best_rtt;
  }
  ctx.time_us = now + total_rtt / 2;

  best->handler->HandlePacket(ctx, query, result.response);
  if (result.response.empty()) {
    result.status = SendStatus::kServerDropped;
    result.server_site = best->site;
    return;
  }
  if (fate.lose_response) {
    // The server answered (work done, exchange captured) but the reply
    // never makes it home; the sender sees no bytes.
    result.response.clear();
    result.status = SendStatus::kLostResponse;
    result.server_site = best->site;
    return;
  }

  result.status = SendStatus::kDelivered;
  result.rtt_us = total_rtt;
  result.server_site = best->site;
}

}  // namespace clouddns::sim
