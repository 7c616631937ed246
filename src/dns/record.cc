#include "dns/record.h"

namespace clouddns::dns {

void Question::Encode(WireWriter& writer) const {
  writer.WriteName(name);
  writer.WriteU16(static_cast<std::uint16_t>(type));
  writer.WriteU16(static_cast<std::uint16_t>(rclass));
}

bool Question::Decode(WireReader& reader, Question& out) {
  std::uint16_t type = 0, rclass = 0;
  if (!reader.ReadName(out.name) || !reader.ReadU16(type) ||
      !reader.ReadU16(rclass)) {
    return false;
  }
  out.type = static_cast<RrType>(type);
  out.rclass = static_cast<RrClass>(rclass);
  return true;
}

std::string Question::ToString() const {
  return name.ToString() + " " + std::string(dns::ToString(type));
}

void ResourceRecord::Encode(WireWriter& writer) const {
  const std::size_t rdlength_at = EncodeHead(writer, name, type, rclass, ttl);
  EncodeRdata(rdata, writer);
  EncodeTail(writer, rdlength_at);
}

std::size_t ResourceRecord::EncodeHead(WireWriter& writer, const Name& owner,
                                       RrType type, RrClass rclass,
                                       std::uint32_t ttl) {
  writer.WriteName(owner);
  writer.WriteU16(static_cast<std::uint16_t>(type));
  writer.WriteU16(static_cast<std::uint16_t>(rclass));
  writer.WriteU32(ttl);
  const std::size_t rdlength_at = writer.size();
  writer.WriteU16(0);  // RDLENGTH placeholder
  return rdlength_at;
}

void ResourceRecord::EncodeTail(WireWriter& writer, std::size_t rdlength_at) {
  writer.PatchU16(rdlength_at,
                  static_cast<std::uint16_t>(writer.size() - rdlength_at - 2));
}

bool ResourceRecord::Decode(WireReader& reader, ResourceRecord& out) {
  std::uint16_t type = 0, rclass = 0, rdlength = 0;
  if (!reader.ReadName(out.name) || !reader.ReadU16(type) ||
      !reader.ReadU16(rclass) || !reader.ReadU32(out.ttl) ||
      !reader.ReadU16(rdlength)) {
    return false;
  }
  out.type = static_cast<RrType>(type);
  out.rclass = static_cast<RrClass>(rclass);
  return DecodeRdata(out.type, rdlength, reader, out.rdata);
}

std::string ResourceRecord::ToString() const {
  return AbsoluteName(name) + " " + std::to_string(ttl) + " IN " +
         std::string(dns::ToString(type)) + " " + RdataToString(rdata);
}

ResourceRecord MakeA(const Name& name, net::Ipv4Address addr,
                     std::uint32_t ttl) {
  return {name, RrType::kA, RrClass::kIn, ttl, ARdata{addr}};
}

ResourceRecord MakeAaaa(const Name& name, net::Ipv6Address addr,
                        std::uint32_t ttl) {
  return {name, RrType::kAaaa, RrClass::kIn, ttl, AaaaRdata{addr}};
}

ResourceRecord MakeNs(const Name& name, const Name& nameserver,
                      std::uint32_t ttl) {
  return {name, RrType::kNs, RrClass::kIn, ttl, NsRdata{nameserver}};
}

ResourceRecord MakeMx(const Name& name, std::uint16_t pref,
                      const Name& exchange, std::uint32_t ttl) {
  return {name, RrType::kMx, RrClass::kIn, ttl, MxRdata{pref, exchange}};
}

ResourceRecord MakeSoa(const Name& name, const SoaRdata& soa,
                       std::uint32_t ttl) {
  return {name, RrType::kSoa, RrClass::kIn, ttl, soa};
}

ResourceRecord MakeTxt(const Name& name, std::string text, std::uint32_t ttl) {
  TxtRdata rdata;
  rdata.strings.push_back(std::move(text));
  return {name, RrType::kTxt, RrClass::kIn, ttl, std::move(rdata)};
}

}  // namespace clouddns::dns
