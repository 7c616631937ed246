// Typed RDATA for the record types this study touches, plus a raw fallback
// so unknown types round-trip losslessly (RFC 3597 spirit). Each form's
// fields are listed once, in wire order (rdata.cc); that one list drives
// the wire encoder and decoder and the presentation writer and parser.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "dns/wire.h"
#include "net/ip.h"

namespace clouddns::dns {

struct ARdata {
  net::Ipv4Address address;
  friend bool operator==(const ARdata&, const ARdata&) = default;
};

struct AaaaRdata {
  net::Ipv6Address address;
  friend bool operator==(const AaaaRdata&, const AaaaRdata&) = default;
};

struct NsRdata {
  Name nameserver;
  friend bool operator==(const NsRdata&, const NsRdata&) = default;
};

struct CnameRdata {
  Name target;
  friend bool operator==(const CnameRdata&, const CnameRdata&) = default;
};

struct PtrRdata {
  Name target;
  friend bool operator==(const PtrRdata&, const PtrRdata&) = default;
};

struct MxRdata {
  std::uint16_t preference = 0;
  Name exchange;
  friend bool operator==(const MxRdata&, const MxRdata&) = default;
};

struct TxtRdata {
  std::vector<std::string> strings;  ///< Each entry <= 255 bytes on the wire.
  friend bool operator==(const TxtRdata&, const TxtRdata&) = default;
};

struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;  ///< Negative-caching TTL (RFC 2308).
  friend bool operator==(const SoaRdata&, const SoaRdata&) = default;
};

struct SrvRdata {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  Name target;
  friend bool operator==(const SrvRdata&, const SrvRdata&) = default;
};

struct DsRdata {
  std::uint16_t key_tag = 0;
  std::uint8_t algorithm = 0;
  std::uint8_t digest_type = 0;
  std::vector<std::uint8_t> digest;
  friend bool operator==(const DsRdata&, const DsRdata&) = default;
};

struct DnskeyRdata {
  std::uint16_t flags = 0;  ///< 256 = ZSK, 257 = KSK.
  std::uint8_t protocol = 3;
  std::uint8_t algorithm = 0;
  std::vector<std::uint8_t> public_key;
  friend bool operator==(const DnskeyRdata&, const DnskeyRdata&) = default;
};

struct RrsigRdata {
  std::uint16_t type_covered = 0;
  std::uint8_t algorithm = 0;
  std::uint8_t labels = 0;
  std::uint32_t original_ttl = 0;
  std::uint32_t expiration = 0;
  std::uint32_t inception = 0;
  std::uint16_t key_tag = 0;
  Name signer;
  std::vector<std::uint8_t> signature;
  friend bool operator==(const RrsigRdata&, const RrsigRdata&) = default;
};

struct NsecRdata {
  Name next;
  std::vector<RrType> types;  ///< Ascending, for the type bitmap.
  friend bool operator==(const NsecRdata&, const NsecRdata&) = default;
};

/// Fallback for types without a dedicated struct.
struct RawRdata {
  std::vector<std::uint8_t> data;
  friend bool operator==(const RawRdata&, const RawRdata&) = default;
};

using Rdata =
    std::variant<ARdata, AaaaRdata, NsRdata, CnameRdata, PtrRdata, MxRdata,
                 TxtRdata, SoaRdata, SrvRdata, DsRdata, DnskeyRdata,
                 RrsigRdata, NsecRdata, RawRdata>;

/// Serializes `rdata` (without the RDLENGTH prefix). Name compression is
/// only applied where RFC 1035/3597 permit (NS/CNAME/PTR/MX/SOA targets).
void EncodeRdata(const Rdata& rdata, WireWriter& writer);

/// Writes the NSEC type bitmap of `types` (RFC 4034 §4.1.2). `types` may
/// come in any order and repeat; nothing is allocated.
void EncodeTypeBitmap(std::span<const RrType> types, WireWriter& writer);

/// Parses `rdlength` bytes at the reader into the typed form for `type`;
/// types without a typed form land in RawRdata. When `out` already holds that form it is
/// decoded over in place, and its byte buffers (`signature`, `public_key`,
/// `digest`, `types`, raw `data`, ...) keep their capacity;
/// otherwise `out` is replaced by a fresh one. Returns false on
/// truncated/bad data, leaving `out` unspecified but destructible.
[[nodiscard]] bool DecodeRdata(RrType type, std::uint16_t rdlength,
                               WireReader& reader, Rdata& out);

/// RFC 1035 §5 presentation text of every field, separated by single
/// spaces: absolute names ("ns1.nl.", the root as "."), integers in
/// decimal, TXT strings quoted, byte fields in hex, types by mnemonic
/// (RFC 3597 "TYPE<n>" when unnamed), and a raw form as RFC 3597's
/// "\# <length> <hex>". ParseRdata reads it back to an equal form.
[[nodiscard]] std::string RdataToString(const Rdata& rdata);

/// Parses one `type` RDATA from its presentation fields, as RdataToString
/// writes them: names through ParseNameField, SOA timers through ParseTtl,
/// and types without a typed form as "\# <length> <hex>". Returns nullopt
/// and sets `error` when a field is malformed, does not fit its wire
/// width, or is missing or left over.
[[nodiscard]] std::optional<Rdata> ParseRdata(
    RrType type, std::span<const std::string> fields, const Name& origin,
    std::string& error);

/// A presentation name field: "@" is `origin`, a name ending in '.' is
/// absolute, any other is relative to `origin`.
[[nodiscard]] std::optional<Name> ParseNameField(std::string_view token,
                                                 const Name& origin);

/// A TTL in seconds with an optional unit suffix (300, 5m, 2h, 1d, 1w);
/// nullopt when malformed or past 2^32 - 1 after its unit.
[[nodiscard]] std::optional<std::uint32_t> ParseTtl(std::string_view text);

/// `name` as an absolute presentation name: "example.nl.", the root ".".
[[nodiscard]] std::string AbsoluteName(const Name& name);

}  // namespace clouddns::dns
