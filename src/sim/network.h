// The simulated network joining resolvers to authoritative servers.
//
// Real wire-format bytes flow through here: a resolver encodes an RFC 1035
// query, Network picks the anycast site (lowest RTT catchment, as BGP
// proximity approximates), hands the bytes to the server's PacketHandler,
// and returns the response bytes with transport-level timing. TCP costs an
// extra round trip for the handshake, and the server learns the measured
// handshake RTT — which is how the paper measures Facebook's per-site RTTs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dns/types.h"
#include "dns/wire.h"
#include "net/ip.h"
#include "sim/clock.h"
#include "sim/fault.h"
#include "sim/latency.h"

namespace clouddns::sim {

/// Metadata delivered to a server alongside the query bytes.
struct PacketContext {
  net::Endpoint src;
  dns::Transport transport = dns::Transport::kUdp;
  TimeUs time_us = 0;          ///< Arrival time at the server.
  std::uint32_t handshake_rtt_us = 0;  ///< TCP only: measured SYN/ACK RTT.
  SiteId server_site = kNoSite;        ///< Which anycast site caught it.
};

/// Implemented by authoritative servers. The response is written into a
/// caller-provided buffer (cleared before dispatch) so steady-state serving
/// reuses one buffer per network instead of allocating per packet; leaving
/// it empty means the packet was dropped (rate limiting, malformed, ...).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void HandlePacket(const PacketContext& ctx,
                            const dns::WireBuffer& query,
                            dns::WireBuffer& response) = 0;

  /// Convenience wrapper returning a fresh buffer (tests, benches).
  dns::WireBuffer HandlePacket(const PacketContext& ctx,
                               const dns::WireBuffer& query) {
    dns::WireBuffer response;
    HandlePacket(ctx, query, response);
    return response;
  }
};

class Network {
 public:
  explicit Network(const LatencyModel& latency) : latency_(latency) {}

  /// Announces `service` from `site`, backed by `handler`. Multiple sites
  /// per service = anycast. The handler must outlive the network.
  void RegisterServer(const net::IpAddress& service, SiteId site,
                      PacketHandler& handler);

  /// Fallback for destinations without an explicit registration — stands in
  /// for the millions of second-level-domain authoritative servers whose
  /// traffic the study does not capture. `site` positions it for RTT.
  void SetDefaultRoute(SiteId site, PacketHandler& handler);

  /// Attaches a fault injector; nullptr (the default) is a lossless
  /// network. The injector is const and stateless, so one instance is
  /// safely shared by every shard's network.
  void SetFaultInjector(const FaultInjector* faults) { faults_ = faults; }

  /// Why a Query() did or did not produce a response.
  enum class SendStatus : std::uint8_t {
    kDelivered,      ///< Response bytes returned.
    kNoRoute,        ///< Destination is neither registered nor defaulted.
    kServerDropped,  ///< Server elected not to answer (RRL, malformed).
    kLostQuery,      ///< Fault: query lost in flight; no server work done.
    kLostResponse,   ///< Fault: response lost; server worked and captured.
  };

  struct SendResult {
    SendStatus status = SendStatus::kNoRoute;
    dns::WireBuffer response;
    std::uint32_t rtt_us = 0;     ///< Total query->response time.
    SiteId server_site = kNoSite;

    [[nodiscard]] bool delivered() const {
      return status == SendStatus::kDelivered;
    }
    /// Lost packets look like a timeout to the sender: it learns
    /// nothing except that no answer came back.
    [[nodiscard]] bool timed_out() const {
      return status == SendStatus::kLostQuery ||
             status == SendStatus::kLostResponse;
    }
  };

  /// Sends `query` from `src` (at `src_site`) to `dst` over `transport` at
  /// simulated time `now`, writing the outcome into `result`. The response
  /// buffer inside `result` is reused across calls (cleared, capacity
  /// kept), so a resolver's steady-state exchange never allocates.
  void Query(const net::Endpoint& src, SiteId src_site,
             const net::IpAddress& dst, dns::Transport transport,
             const dns::WireBuffer& query, TimeUs now, SendResult& result);

  /// Convenience wrapper returning a fresh SendResult.
  [[nodiscard]] SendResult Query(const net::Endpoint& src, SiteId src_site,
                                 const net::IpAddress& dst,
                                 dns::Transport transport,
                                 const dns::WireBuffer& query, TimeUs now) {
    SendResult result;
    Query(src, src_site, dst, transport, query, now, result);
    return result;
  }

  [[nodiscard]] std::size_t service_count() const { return services_.size(); }

 private:
  struct Instance {
    SiteId site;
    PacketHandler* handler;
  };

  const LatencyModel& latency_;
  const FaultInjector* faults_ = nullptr;
  std::unordered_map<net::IpAddress, std::vector<Instance>, net::IpAddressHash>
      services_;
  Instance default_route_{kNoSite, nullptr};
};

}  // namespace clouddns::sim
