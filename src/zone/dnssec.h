// Mock DNSSEC signer.
//
// The paper measures DNSSEC *query patterns* (DS/DNSKEY fetches by
// validating resolvers), not cryptography. We therefore substitute real
// RSA/ECDSA with a deterministic keyed hash: signatures are reproducible
// functions of (signer zone, owner name, type), built without any crypto
// library while the wire format stays bit-exact RFC 4034. DESIGN.md
// documents this substitution.
//
// Because a signature is a pure function of the RRset it covers, a signed
// zone stores none: the server writes each RRSIG into the packet as it
// answers (WriteRrsig), as online signers do (RFC 4470).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/response_writer.h"
#include "zone/zone.h"

namespace clouddns::zone {

/// Algorithm number we stamp into records (8 = RSASHA256; RSA-sized
/// signatures matter because they drive truncation at small EDNS sizes).
inline constexpr std::uint8_t kMockAlgorithm = 8;

/// Every RRset's RRSIG validity window: the simulation clock always falls
/// inside it, so mock signatures never "expire" mid-run.
inline constexpr std::uint32_t kMockInception = 1514764800;   // 2018-01-01
inline constexpr std::uint32_t kMockExpiration = 1735689600;  // 2025-01-01

/// An RRSIG's validity window (RFC 4034 §3.1.5), in seconds of the epoch.
struct SignatureWindow {
  std::uint32_t expiration = 0;
  std::uint32_t inception = 0;
};
inline constexpr SignatureWindow kMockWindow{kMockExpiration, kMockInception};

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
/// identity.
void FillMockSignature(const dns::Name& signer, const dns::Name& owner,
                       dns::RrType type, std::span<std::uint8_t> out);

/// Writes into `section` of `out` the RRSIG that the zone at `signer`
/// makes over the RRset of type `covered` at `owner` whose first record
/// has `ttl`: the fixed fields in dns::RrsigRdata order, then
/// kMockSignatureSize bytes of FillMockSignature in place. The DNSKEY
/// RRset is signed with the KSK, every other one with the ZSK.
void WriteRrsig(const dns::Name& signer, const dns::Name& owner,
                dns::RrType covered, std::uint32_t ttl,
                SignatureWindow window, dns::Section section,
                dns::ResponseWriter& out);

/// Fills `out` with the public key of the apex DNSKEY with `flags`
/// (kKskFlags or kZskFlags), as MakeApexDnskeys builds it.
void FillMockPublicKey(const dns::Name& zone_apex, std::uint16_t flags,
                       std::span<std::uint8_t> out);
/// Fills `out` with the digest of the DS MakeDs builds for `child_apex`.
void FillMockDsDigest(const dns::Name& child_apex,
                      std::span<std::uint8_t> out);

/// Records in the apex DNSKEY RRset MakeApexDnskeys builds.
inline constexpr std::size_t kApexDnskeyCount = 2;

/// Builds the apex DNSKEY RRset (one KSK, one ZSK) for a zone.
[[nodiscard]] std::vector<dns::ResourceRecord> MakeApexDnskeys(
    const dns::Name& zone_apex, std::uint32_t ttl);

/// Builds the DS record a parent publishes for a signed child.
[[nodiscard]] dns::ResourceRecord MakeDs(const dns::Name& child_apex,
                                         std::uint32_t ttl);

/// Signs every RRset in `zone`: adds the apex DNSKEYs and freezes the
/// zone, whose IsSigned() then tells the server to write an RRSIG over
/// each RRset it answers with (WriteRrsig). Needs an unfrozen zone, after
/// its last Add; throws std::logic_error, leaving the zone untouched, when
/// it is frozen or already has an apex DNSKEY.
void SignZone(Zone& zone, std::uint32_t dnskey_ttl = 172800);

}  // namespace clouddns::zone
