// The authoritative DNS server engine.
//
// One AuthServer models one NS of a TLD/root operator (e.g. ".nl server A").
// It can serve several zones (the .nz operator serves .nz plus the
// second-level zones like co.nz), is deployed at one or more anycast sites
// via sim::Network registration, applies EDNS-aware truncation and optional
// response rate limiting, and — like the paper's vantage points — captures
// every query/response pair into an ENTRADA-style CaptureBuffer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "capture/record.h"
#include "dns/message.h"
#include "dns/response_writer.h"
#include "server/rrl.h"
#include "sim/network.h"
#include "zone/zone.h"

namespace clouddns::server {

struct AuthServerConfig {
  std::uint32_t server_id = 0;       ///< Capture label ("server A" = 0).
  std::string name = "ns";           ///< Human label, for reports.
  RrlConfig rrl;
  bool capture_enabled = true;  ///< The paper could only pcap some NSes.
};

class AuthServer final : public sim::PacketHandler {
 public:
  explicit AuthServer(AuthServerConfig config)
      : config_(std::move(config)), rrl_(config_.rrl) {}

  /// Adds a zone this server is authoritative for. Zones must outlive the
  /// server. When several apexes enclose a qname the deepest wins.
  void Serve(std::shared_ptr<const zone::Zone> zone);

  /// sim::PacketHandler: full query->response cycle plus capture. Decodes
  /// into a member scratch message and writes the response from the zone
  /// image straight into `response` (dns::ResponseWriter), so serving a
  /// query at steady state does not allocate (ServerAllocTest).
  void HandlePacket(const sim::PacketContext& ctx,
                    const dns::WireBuffer& query,
                    dns::WireBuffer& response) override;
  using sim::PacketHandler::HandlePacket;

  [[nodiscard]] const capture::CaptureBuffer& captured() const {
    return capture_;
  }
  capture::CaptureBuffer TakeCaptured() { return std::move(capture_); }
  [[nodiscard]] const AuthServerConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t rrl_slips() const { return rrl_.slip_count(); }

 private:
  [[nodiscard]] const zone::Zone* BestZoneFor(const dns::Name& qname) const;
  /// Writes the sections and rcode of the answer to `query` into `out`.
  void Answer(const dns::Message& query, dns::ResponseWriter& out) const;

  AuthServerConfig config_;
  std::vector<std::shared_ptr<const zone::Zone>> zones_;
  ResponseRateLimiter rrl_;
  capture::CaptureBuffer capture_;
  /// Per-packet scratch reused across HandlePacket calls; its section
  /// vectors keep capacity, so decoding stops allocating once warm.
  dns::Message query_scratch_;
};

}  // namespace clouddns::server
