// Zone master-file (presentation format, RFC 1035 §5) parsing and
// serialization: load a Zone from the textual format every DNS operator
// tool speaks, and dump one back out. Supports $ORIGIN/$TTL directives,
// '@' for the origin, relative and absolute names, ';' comments, and the
// record types a zone file carries (A, AAAA, NS, CNAME, PTR, MX, TXT,
// SRV, SOA, DS, DNSKEY). Multi-line parentheses are supported for SOA.
// This module owns the tokenizer, the directives and the type list; each
// record's fields are read by dns::ParseRdata and written by
// dns::ResourceRecord::ToString, from the same field lists as the wire.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "zone/zone.h"

namespace clouddns::zone {

struct MasterFileError {
  std::size_t line = 0;
  std::string message;
};

struct ParsedZone {
  std::optional<Zone> zone;  ///< Present when no fatal error occurred.
  std::vector<MasterFileError> errors;
};

/// Parses presentation-format text. `default_origin` seeds $ORIGIN (may be
/// overridden by a directive). The zone apex is taken from the SOA owner;
/// a file without a SOA is rejected. The zone comes back frozen.
[[nodiscard]] ParsedZone ParseMasterFile(std::string_view text,
                                         const dns::Name& default_origin);

/// Renders a frozen zone in presentation format: SOA first, then the
/// remaining records in canonical owner order. Output re-parses to an
/// equal zone.
[[nodiscard]] std::string ToMasterFile(const Zone& zone);

}  // namespace clouddns::zone
