// Full DNS messages: header, sections, EDNS(0), encode/decode, truncation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dns/record.h"
#include "dns/types.h"
#include "dns/wire.h"

namespace clouddns::dns {

/// EDNS(0) parameters carried in the OPT pseudo-record (RFC 6891). The
/// paper's Figure 6 is built from `udp_payload_size` of captured queries.
struct EdnsInfo {
  std::uint16_t udp_payload_size = 512;
  bool dnssec_ok = false;  ///< The DO bit.
  std::uint8_t version = 0;

  friend bool operator==(const EdnsInfo&, const EdnsInfo&) = default;
};

/// Classic pre-EDNS maximum UDP response size (RFC 1035 §4.2.1).
inline constexpr std::size_t kClassicUdpLimit = 512;

/// The UDP payload size every authoritative server advertises in its EDNS
/// and caps its UDP responses at.
inline constexpr std::uint16_t kServerUdpPayloadSize = 4096;

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  ///< Response flag.
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< Authoritative answer.
  bool tc = false;  ///< Truncated.
  bool rd = false;  ///< Recursion desired.
  bool ra = false;  ///< Recursion available.
  Rcode rcode = Rcode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

class Message {
 public:
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;  ///< Excluding the OPT record.
  std::optional<EdnsInfo> edns;

  /// Builds a query with one question. EDNS is attached when provided.
  static Message MakeQuery(std::uint16_t id, const Name& qname, RrType qtype,
                           std::optional<EdnsInfo> edns = std::nullopt);

  /// Builds a response skeleton echoing the query's id/question/EDNS.
  static Message MakeResponse(const Message& query);

  /// Resets this message in place to the MakeQuery skeleton, keeping each
  /// section vector's capacity (reusable-query counterpart of MakeQuery).
  void ResetAsQueryFor(std::uint16_t id, const Name& qname, RrType qtype,
                       const std::optional<EdnsInfo>& edns = std::nullopt);

  /// Encodes to wire format with name compression, through a
  /// ResponseWriter (dns/response_writer.h). The OPT record is synthesized
  /// from `edns` into the additional section.
  [[nodiscard]] WireBuffer Encode() const;

  /// Reusable-buffer encode: clears `out` (keeping its capacity) and fills
  /// it, so steady-state encoding into a pooled buffer never allocates.
  void EncodeInto(WireBuffer& out) const;

  /// Decodes from wire bytes. Returns nullopt on any malformation.
  static std::optional<Message> Decode(const WireBuffer& wire);
  static std::optional<Message> Decode(const std::uint8_t* data,
                                       std::size_t size);

  /// Reusable-message decode. Each question and record is decoded over the
  /// previous occupant of its slot in `out`: names are overwritten, and a
  /// slot that already holds the same rdata type keeps its byte buffers
  /// (see DecodeRdata). A section grows one slot per decoded entry, so a
  /// forged count never sizes an allocation, and is trimmed to the decoded
  /// count on success. Once `out` has seen messages of the shape it is
  /// given, decoding into it does not allocate. Returns false on any
  /// malformation, leaving `out` in an unspecified but destructible state.
  [[nodiscard]] static bool DecodeInto(const std::uint8_t* data,
                                       std::size_t size, Message& out);

  /// dig-style multi-line rendering for examples and debugging.
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Message&, const Message&) = default;
};

/// The header's flags word on the wire (RFC 1035 §4.1.1).
[[nodiscard]] std::uint16_t PackFlags(const Header& header);

/// The header of a response to a query with header `query`: its id,
/// opcode and RD, with QR set.
[[nodiscard]] Header ResponseHeader(const Header& query);

/// The EDNS a response to `query` carries: none when the query has none,
/// otherwise the server's own payload size with the query's DO bit.
[[nodiscard]] std::optional<EdnsInfo> ResponseEdns(const Message& query);

/// The largest UDP response a server sends to `query`: 512 without EDNS,
/// otherwise the advertised size clamped to [512, kServerUdpPayloadSize].
[[nodiscard]] std::size_t UdpResponseLimit(const Message& query);

}  // namespace clouddns::dns
