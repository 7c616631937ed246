// Autonomous-system database: prefix -> ASN origin mapping plus per-AS
// metadata, mirroring the routing-table enrichment step ENTRADA performs on
// every captured source address.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/prefix.h"
#include "net/prefix_trie.h"

namespace clouddns::net {

using Asn = std::uint32_t;

struct AsInfo {
  Asn asn = 0;
  std::string org;  ///< Organization name ("GOOGLE", "NL-ISP-17", ...).
};

/// Immutable-after-build map from source address to origin AS.
class AsDatabase {
 public:
  /// Registers an AS; idempotent for the same ASN (org must not change).
  void AddAs(Asn asn, std::string org);

  /// Announces `prefix` from `asn`. The ASN must have been registered.
  /// More-specific announcements win on lookup, as in BGP.
  void Announce(const Prefix& prefix, Asn asn);

  /// Longest-prefix-match origin lookup.
  [[nodiscard]] std::optional<Asn> OriginAs(const IpAddress& addr) const;

  [[nodiscard]] const AsInfo* Info(Asn asn) const;
  [[nodiscard]] std::size_t as_count() const { return as_info_.size(); }

 private:
  PrefixMap<Asn> routes_;
  std::unordered_map<Asn, AsInfo> as_info_;
};

}  // namespace clouddns::net
