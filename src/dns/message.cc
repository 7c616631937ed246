#include "dns/message.h"

#include <algorithm>

#include "dns/audit.h"
#include "dns/response_writer.h"

namespace clouddns::dns {
namespace {

constexpr std::uint16_t kFlagQr = 0x8000;
constexpr std::uint16_t kFlagAa = 0x0400;
constexpr std::uint16_t kFlagTc = 0x0200;
constexpr std::uint16_t kFlagRd = 0x0100;
constexpr std::uint16_t kFlagRa = 0x0080;

/// Slot `index` of `section`, appended when the section is not that long
/// yet. Sections grow one slot per decoded entry, never by a wire count.
template <typename T>
T& SlotAt(std::vector<T>& section, std::size_t index) {
  if (index == section.size()) section.emplace_back();
  return section[index];
}

Header UnpackFlags(std::uint16_t id, std::uint16_t flags) {
  Header h;
  h.id = id;
  h.qr = flags & kFlagQr;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  h.aa = flags & kFlagAa;
  h.tc = flags & kFlagTc;
  h.rd = flags & kFlagRd;
  h.ra = flags & kFlagRa;
  h.rcode = static_cast<Rcode>(flags & 0xf);
  return h;
}

}  // namespace

std::uint16_t PackFlags(const Header& h) {
  std::uint16_t flags = 0;
  if (h.qr) flags |= kFlagQr;
  flags |= static_cast<std::uint16_t>((static_cast<unsigned>(h.opcode) & 0xf)
                                      << 11);
  if (h.aa) flags |= kFlagAa;
  if (h.tc) flags |= kFlagTc;
  if (h.rd) flags |= kFlagRd;
  if (h.ra) flags |= kFlagRa;
  flags |= static_cast<std::uint16_t>(static_cast<unsigned>(h.rcode) & 0xf);
  return flags;
}

Message Message::MakeQuery(std::uint16_t id, const Name& qname, RrType qtype,
                           std::optional<EdnsInfo> edns) {
  Message msg;
  msg.ResetAsQueryFor(id, qname, qtype, edns);
  return msg;
}

void Message::ResetAsQueryFor(std::uint16_t id, const Name& qname,
                              RrType qtype,
                              const std::optional<EdnsInfo>& edns) {
  header = Header{};
  header.id = id;
  header.rd = false;  // resolver-to-authoritative queries are iterative
  questions.clear();
  questions.push_back(Question{qname, qtype, RrClass::kIn});
  answers.clear();
  authorities.clear();
  additionals.clear();
  this->edns = edns;
}

Message Message::MakeResponse(const Message& query) {
  Message msg;
  msg.header = ResponseHeader(query.header);
  msg.questions = query.questions;
  msg.edns = ResponseEdns(query);
  return msg;
}

Header ResponseHeader(const Header& query) {
  Header header;
  header.id = query.id;
  header.qr = true;
  header.opcode = query.opcode;
  header.rd = query.rd;
  return header;
}

std::optional<EdnsInfo> ResponseEdns(const Message& query) {
  if (!query.edns) return std::nullopt;
  // Echo EDNS with the server's own advertised size.
  return EdnsInfo{kServerUdpPayloadSize, query.edns->dnssec_ok, 0};
}

std::size_t UdpResponseLimit(const Message& query) {
  if (!query.edns) return kClassicUdpLimit;
  return std::clamp<std::size_t>(query.edns->udp_payload_size,
                                 kClassicUdpLimit, kServerUdpPayloadSize);
}

WireBuffer Message::Encode() const {
  WireBuffer out;
  EncodeInto(out);
  return out;
}

void Message::EncodeInto(WireBuffer& out) const {
  ResponseWriter writer(out, header, questions, edns);
  writer.Add(Section::kAnswer, answers);
  writer.Add(Section::kAuthority, authorities);
  writer.Add(Section::kAdditional, additionals);
  writer.Finish();
}

std::optional<Message> Message::Decode(const WireBuffer& wire) {
  return Decode(wire.data(), wire.size());
}

std::optional<Message> Message::Decode(const std::uint8_t* data,
                                       std::size_t size) {
  Message msg;
  if (!DecodeInto(data, size, msg)) return std::nullopt;
  return msg;
}

bool Message::DecodeInto(const std::uint8_t* data, std::size_t size,
                         Message& msg) {
  msg.header = Header{};
  msg.edns.reset();

  WireReader reader(data, size);
  std::uint16_t id = 0, flags = 0, qdcount = 0, ancount = 0, nscount = 0,
                arcount = 0;
  if (!reader.ReadU16(id) || !reader.ReadU16(flags) ||
      !reader.ReadU16(qdcount) || !reader.ReadU16(ancount) ||
      !reader.ReadU16(nscount) || !reader.ReadU16(arcount)) {
    return false;
  }
  msg.header = UnpackFlags(id, flags);

  for (std::size_t i = 0; i < qdcount; ++i) {
    if (!Question::Decode(reader, SlotAt(msg.questions, i))) return false;
  }
  msg.questions.resize(qdcount);
  // RFC 6891 §6.1.1: the OPT pseudo-record lives in the additional
  // section only.
  auto read_records = [&reader](std::size_t count,
                                std::vector<ResourceRecord>& out) -> bool {
    for (std::size_t i = 0; i < count; ++i) {
      ResourceRecord& rr = SlotAt(out, i);
      if (!ResourceRecord::Decode(reader, rr) || rr.type == RrType::kOpt) {
        return false;
      }
    }
    out.resize(count);
    return true;
  };
  if (!read_records(ancount, msg.answers) ||
      !read_records(nscount, msg.authorities)) {
    return false;
  }
  std::size_t additional_count = 0;
  for (int i = 0; i < arcount; ++i) {
    ResourceRecord& rr = SlotAt(msg.additionals, additional_count);
    if (!ResourceRecord::Decode(reader, rr)) return false;
    if (rr.type != RrType::kOpt) {
      ++additional_count;
      continue;
    }
    // The OPT record is lifted into `edns`; its slot is decoded over next.
    if (msg.edns) return false;  // duplicate OPT is FORMERR
    if (rr.name.LabelCount() != 0) {
      return false;  // OPT owner must be root (RFC 6891 §6.1.2)
    }
    EdnsInfo edns;
    edns.udp_payload_size = static_cast<std::uint16_t>(rr.rclass);
    edns.dnssec_ok = (rr.ttl & 0x8000u) != 0;
    edns.version = static_cast<std::uint8_t>((rr.ttl >> 16) & 0xff);
    msg.edns = edns;
  }
  msg.additionals.resize(additional_count);
  // Trailing bytes after the promised record counts are a framing error
  // (and would make re-encoding lossy).
  if (!reader.AtEnd()) return false;
  // Anything the parser accepts must also satisfy the structural auditor;
  // a divergence here is a parser bug, not bad input.
  audit::Audit(data, size, "dns::Message::Decode (accepted input)");
  return true;
}

std::string Message::ToString() const {
  std::string out;
  out += ";; id " + std::to_string(header.id) + " " +
         (header.qr ? "response" : "query") + " rcode " +
         std::string(dns::ToString(header.rcode));
  if (header.aa) out += " aa";
  if (header.tc) out += " tc";
  if (edns) {
    out += " edns(size=" + std::to_string(edns->udp_payload_size) +
           (edns->dnssec_ok ? ",do" : "") + ")";
  }
  out += "\n;; QUESTION\n";
  for (const auto& q : questions) out += "  " + q.ToString() + "\n";
  auto dump = [&out](const char* title,
                     const std::vector<ResourceRecord>& records) {
    if (records.empty()) return;
    out += std::string(";; ") + title + "\n";
    for (const auto& rr : records) out += "  " + rr.ToString() + "\n";
  };
  dump("ANSWER", answers);
  dump("AUTHORITY", authorities);
  dump("ADDITIONAL", additionals);
  return out;
}

}  // namespace clouddns::dns
