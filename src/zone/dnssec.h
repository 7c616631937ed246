// Mock DNSSEC signer.
//
// The paper measures DNSSEC *query patterns* (DS/DNSKEY fetches by
// validating resolvers), not cryptography. We therefore substitute real
// RSA/ECDSA with a deterministic keyed hash: signatures are reproducible
// functions of (signer zone, owner name, type), built without any crypto
// library while the wire format stays bit-exact RFC 4034. DESIGN.md
// documents this substitution.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "zone/zone.h"

namespace clouddns::zone {

/// Algorithm number we stamp into records (8 = RSASHA256; RSA-sized
/// signatures matter because they drive truncation at small EDNS sizes).
inline constexpr std::uint8_t kMockAlgorithm = 8;

/// Every RRSIG's validity window: the simulation clock always falls inside
/// it, so mock signatures never "expire" mid-run.
inline constexpr std::uint32_t kMockInception = 1514764800;   // 2018-01-01
inline constexpr std::uint32_t kMockExpiration = 1735689600;  // 2025-01-01

/// Deterministic key tag for a zone's ZSK/KSK.
[[nodiscard]] std::uint16_t ZskTagFor(const dns::Name& zone_apex);
[[nodiscard]] std::uint16_t KskTagFor(const dns::Name& zone_apex);

/// Deterministic "signature" bytes over an RRset identity.
[[nodiscard]] std::vector<std::uint8_t> MockSignature(
    const dns::Name& signer, const dns::Name& owner, dns::RrType type);

/// Builds the apex DNSKEY RRset (one KSK, one ZSK) for a zone.
[[nodiscard]] std::vector<dns::ResourceRecord> MakeApexDnskeys(
    const dns::Name& zone_apex, std::uint32_t ttl);

/// Builds the DS record a parent publishes for a signed child.
[[nodiscard]] dns::ResourceRecord MakeDs(const dns::Name& child_apex,
                                         std::uint32_t ttl);

/// Signs every RRset in `zone`: attaches apex DNSKEYs and one RRSIG per
/// (owner, type) RRset, and freezes the zone. Needs an unfrozen zone, after
/// its last Add; throws std::logic_error, leaving the zone untouched, when
/// it is frozen or already has an apex DNSKEY.
void SignZone(Zone& zone, std::uint32_t dnskey_ttl = 172800);

}  // namespace clouddns::zone
