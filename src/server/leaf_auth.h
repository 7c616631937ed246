// The synthetic "rest of the DNS" — a catch-all authoritative service that
// answers for every second-level-domain nameserver the TLD zones delegate
// to. The study never captures this traffic (its vantage points are the
// TLDs and B-Root), but resolvers must be able to finish resolutions below
// the delegation point or their caching/QNAME-minimization behaviour at the
// TLD would be wrong. Answers are synthesized deterministically from the
// query name, so the same name always resolves the same way.
#pragma once

#include "dns/message.h"
#include "dns/response_writer.h"
#include "sim/network.h"

namespace clouddns::server {

struct LeafAuthConfig {
  /// Fraction of names that have AAAA records (deterministic by name hash).
  double v6_fraction = 0.55;
};

class LeafAuthService final : public sim::PacketHandler {
 public:
  explicit LeafAuthService(LeafAuthConfig config) : config_(config) {}

  void HandlePacket(const sim::PacketContext& ctx,
                    const dns::WireBuffer& query,
                    dns::WireBuffer& response) override;
  using sim::PacketHandler::HandlePacket;

  /// The deterministic address a name resolves to (also used by tests).
  [[nodiscard]] static net::Ipv4Address SyntheticV4(const dns::Name& name);
  [[nodiscard]] static net::Ipv6Address SyntheticV6(const dns::Name& name);

  [[nodiscard]] std::uint64_t handled() const { return handled_; }

 private:
  [[nodiscard]] bool HasV6(const dns::Name& name) const;
  /// Writes the synthesized answer to `query` into `out`.
  void Answer(const dns::Message& query, dns::ResponseWriter& out) const;

  LeafAuthConfig config_;
  std::uint64_t handled_ = 0;
  /// Per-packet scratch reused across HandlePacket calls.
  dns::Message query_scratch_;
};

}  // namespace clouddns::server
