// Resource records and questions.
#pragma once

#include <cstdint>
#include <string>

#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/types.h"
#include "dns/wire.h"

namespace clouddns::dns {

struct Question {
  Name name;
  RrType type = RrType::kA;
  RrClass rclass = RrClass::kIn;

  void Encode(WireWriter& writer) const;
  [[nodiscard]] static bool Decode(WireReader& reader, Question& out);
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Question&, const Question&) = default;
};

struct ResourceRecord {
  Name name;
  RrType type = RrType::kA;
  RrClass rclass = RrClass::kIn;
  std::uint32_t ttl = 0;
  Rdata rdata;

  void Encode(WireWriter& writer) const;
  /// The two halves of Encode, around RDATA a caller writes in place:
  /// EncodeHead writes the owner, type, class, TTL and a zero RDLENGTH and
  /// returns the RDLENGTH's offset, which EncodeTail back-fills once the
  /// RDATA is written.
  [[nodiscard]] static std::size_t EncodeHead(WireWriter& writer,
                                              const Name& owner, RrType type,
                                              RrClass rclass,
                                              std::uint32_t ttl);
  static void EncodeTail(WireWriter& writer, std::size_t rdlength_at);
  [[nodiscard]] static bool Decode(WireReader& reader, ResourceRecord& out);
  /// One RFC 1035 §5 master-file line without its newline: absolute owner,
  /// TTL, class IN, type, then RdataToString(rdata).
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) =
      default;
};

// Convenience constructors used throughout zone building and tests.
[[nodiscard]] ResourceRecord MakeA(const Name& name, net::Ipv4Address addr,
                                   std::uint32_t ttl);
[[nodiscard]] ResourceRecord MakeAaaa(const Name& name, net::Ipv6Address addr,
                                      std::uint32_t ttl);
[[nodiscard]] ResourceRecord MakeNs(const Name& name, const Name& nameserver,
                                    std::uint32_t ttl);
[[nodiscard]] ResourceRecord MakeMx(const Name& name, std::uint16_t pref,
                                    const Name& exchange, std::uint32_t ttl);
[[nodiscard]] ResourceRecord MakeSoa(const Name& name, const SoaRdata& soa,
                                     std::uint32_t ttl);
[[nodiscard]] ResourceRecord MakeTxt(const Name& name, std::string text,
                                     std::uint32_t ttl);

}  // namespace clouddns::dns
