#include "dns/types.h"

#include <algorithm>
#include <charconv>

namespace clouddns::dns {

std::string_view ToString(RrType type) {
  switch (type) {
    case RrType::kA: return "A";
    case RrType::kNs: return "NS";
    case RrType::kCname: return "CNAME";
    case RrType::kSoa: return "SOA";
    case RrType::kPtr: return "PTR";
    case RrType::kMx: return "MX";
    case RrType::kTxt: return "TXT";
    case RrType::kAaaa: return "AAAA";
    case RrType::kSrv: return "SRV";
    case RrType::kOpt: return "OPT";
    case RrType::kDs: return "DS";
    case RrType::kRrsig: return "RRSIG";
    case RrType::kNsec: return "NSEC";
    case RrType::kDnskey: return "DNSKEY";
    case RrType::kNsec3: return "NSEC3";
    case RrType::kNsec3Param: return "NSEC3PARAM";
    case RrType::kAxfr: return "AXFR";
    case RrType::kAny: return "ANY";
  }
  return "TYPE?";
}

std::optional<RrType> RrTypeFromString(std::string_view text) {
  struct Entry {
    std::string_view name;
    RrType type;
  };
  static constexpr Entry kEntries[] = {
      {"A", RrType::kA},         {"NS", RrType::kNs},
      {"CNAME", RrType::kCname}, {"SOA", RrType::kSoa},
      {"PTR", RrType::kPtr},     {"MX", RrType::kMx},
      {"TXT", RrType::kTxt},     {"AAAA", RrType::kAaaa},
      {"SRV", RrType::kSrv},     {"OPT", RrType::kOpt},
      {"DS", RrType::kDs},       {"RRSIG", RrType::kRrsig},
      {"NSEC", RrType::kNsec},   {"DNSKEY", RrType::kDnskey},
      {"NSEC3", RrType::kNsec3}, {"NSEC3PARAM", RrType::kNsec3Param},
      {"AXFR", RrType::kAxfr},   {"ANY", RrType::kAny},
  };
  auto upper = [](char c) {
    return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
  };
  auto is = [upper](std::string_view name, std::string_view given) {
    return std::ranges::equal(name, given, {}, {}, upper);
  };
  for (const auto& entry : kEntries) {
    if (is(entry.name, text)) return entry.type;
  }
  // RFC 3597 §5: "TYPE<n>" names any type by its decimal code.
  if (text.size() < 5 || !is("TYPE", text.substr(0, 4))) return std::nullopt;
  std::uint16_t code = 0;
  const auto [end, error] =
      std::from_chars(text.data() + 4, text.data() + text.size(), code);
  if (error != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return static_cast<RrType>(code);
}

std::string_view ToString(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kFormErr: return "FORMERR";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kNxDomain: return "NXDOMAIN";
    case Rcode::kNotImp: return "NOTIMP";
    case Rcode::kRefused: return "REFUSED";
  }
  return "RCODE?";
}

std::string_view ToString(Transport transport) {
  return transport == Transport::kUdp ? "UDP" : "TCP";
}

}  // namespace clouddns::dns
