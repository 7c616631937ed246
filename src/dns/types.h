// Core DNS protocol enumerations (RFC 1035, 4034, 6891).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace clouddns::dns {

/// Resource-record types used in this study. Values are IANA assignments.
enum class RrType : std::uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kPtr = 12,
  kMx = 15,
  kTxt = 16,
  kAaaa = 28,
  kSrv = 33,
  kOpt = 41,    ///< EDNS(0) pseudo-RR, additional section only.
  kDs = 43,
  kRrsig = 46,
  kNsec = 47,
  kDnskey = 48,
  kNsec3 = 50,
  kNsec3Param = 51,
  kAxfr = 252,  ///< Zone-transfer pseudo-qtype (TCP only).
  kAny = 255,
};

enum class RrClass : std::uint16_t {
  kIn = 1,
  kCh = 3,
  kAny = 255,
};

enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

enum class Opcode : std::uint8_t {
  kQuery = 0,
  kNotify = 4,
  kUpdate = 5,
};

/// Transport the query arrived over; part of every capture record.
enum class Transport : std::uint8_t {
  kUdp = 0,
  kTcp = 1,
};

[[nodiscard]] std::string_view ToString(RrType type);
/// A type by its mnemonic in any case ("AAAA", "aaaa"), or by RFC 3597's
/// "TYPE<n>".
[[nodiscard]] std::optional<RrType> RrTypeFromString(std::string_view text);

[[nodiscard]] std::string_view ToString(Rcode rcode);
[[nodiscard]] std::string_view ToString(Transport transport);

/// The paper's definition of "junk": any query whose response RCODE is not
/// NOERROR (§3).
[[nodiscard]] constexpr bool IsJunkRcode(Rcode rcode) {
  return rcode != Rcode::kNoError;
}

}  // namespace clouddns::dns
