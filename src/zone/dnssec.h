// Mock DNSSEC signer.
//
// The paper measures DNSSEC *query patterns* (DS/DNSKEY fetches by
// validating resolvers), not cryptography. We therefore substitute real
// RSA/ECDSA with a deterministic keyed hash: signatures are reproducible
// functions of (signer zone, owner name, type), built without any crypto
// library while the wire format stays bit-exact RFC 4034. DESIGN.md
// documents this substitution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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

/// DNSKEY flags of a zone's KSK and ZSK.
inline constexpr std::uint16_t kKskFlags = 257;
inline constexpr std::uint16_t kZskFlags = 256;

/// Sizes of the mock material: RSA-2048 signatures and public keys, and
/// SHA-256 DS digests.
inline constexpr std::size_t kMockSignatureSize = 256;
inline constexpr std::size_t kMockKeySize = 256;
inline constexpr std::size_t kMockDigestSize = 32;

/// Deterministic key tag for a zone's ZSK/KSK.
[[nodiscard]] std::uint16_t ZskTagFor(const dns::Name& zone_apex);
[[nodiscard]] std::uint16_t KskTagFor(const dns::Name& zone_apex);

/// Fills `out` with deterministic "signature" bytes over an RRset
/// identity. A server writes a signature in place with it; MockSignature
/// returns the same bytes for a record in a zone image.
void FillMockSignature(const dns::Name& signer, const dns::Name& owner,
                       dns::RrType type, std::span<std::uint8_t> out);
/// kMockSignatureSize bytes of FillMockSignature.
[[nodiscard]] std::vector<std::uint8_t> MockSignature(
    const dns::Name& signer, const dns::Name& owner, dns::RrType type);

/// Fills `out` with the public key of the apex DNSKEY with `flags`
/// (kKskFlags or kZskFlags), as MakeApexDnskeys builds it.
void FillMockPublicKey(const dns::Name& zone_apex, std::uint16_t flags,
                       std::span<std::uint8_t> out);
/// Fills `out` with the digest of the DS MakeDs builds for `child_apex`.
void FillMockDsDigest(const dns::Name& child_apex,
                      std::span<std::uint8_t> out);

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
