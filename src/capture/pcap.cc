#include "capture/pcap.h"

#include <algorithm>
#include <cstdio>

#include "dns/audit.h"
#include "dns/message.h"

namespace clouddns::capture {
namespace {

constexpr std::uint32_t kPcapMagic = 0xa1b2c3d4;  // microsecond timestamps
constexpr std::uint16_t kEthertypeIpv4 = 0x0800;
constexpr std::uint16_t kEthertypeIpv6 = 0x86dd;
constexpr std::uint8_t kProtoTcp = 6;
constexpr std::uint8_t kProtoUdp = 17;

// The capture record does not retain the destination service address, so
// export uses fixed placeholder server addresses (documented as lossy).
const char* kServerV4 = "198.51.100.53";
const char* kServerV6 = "2001:db8:5353::53";

void PutLE16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}
void PutLE32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}
void PutBE16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t Ipv4Checksum(const std::uint8_t* data, std::size_t len) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < len; i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (len % 2) sum += static_cast<std::uint32_t>(data[len - 1] << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

dns::WireBuffer QueryWire(const CaptureRecord& record) {
  std::optional<dns::EdnsInfo> edns;
  if (record.has_edns) {
    edns = dns::EdnsInfo{record.edns_udp_size, record.do_bit, 0};
  }
  // The original message id is not retained; derive a stable one.
  auto id = static_cast<std::uint16_t>(record.time_us ^ record.src_port);
  return dns::Message::MakeQuery(id, record.qname, record.qtype, edns)
      .Encode();
}

void AppendFrame(std::vector<std::uint8_t>& out, const CaptureRecord& record) {
  dns::WireBuffer dns_wire = QueryWire(record);
  // Every payload the capture writer embeds must be a conformant message;
  // a violation here means the re-encoder mangled the record.
  dns::audit::Audit(dns_wire, "capture::EncodePcap frame payload");

  // L4 payload (+2-byte length prefix over TCP, RFC 1035 §4.2.2).
  std::vector<std::uint8_t> l4;
  const bool tcp = record.transport == dns::Transport::kTcp;
  if (tcp) {
    // Minimal TCP header: 20 bytes, PSH|ACK.
    PutBE16(l4, record.src_port);
    PutBE16(l4, 53);
    for (int i = 0; i < 8; ++i) l4.push_back(0);  // seq + ack
    l4.push_back(0x50);                            // data offset 5
    l4.push_back(0x18);                            // PSH|ACK
    PutBE16(l4, 65535);                            // window
    PutBE16(l4, 0);                                // checksum (omitted)
    PutBE16(l4, 0);                                // urgent
    PutBE16(l4, static_cast<std::uint16_t>(dns_wire.size()));
    l4.insert(l4.end(), dns_wire.begin(), dns_wire.end());
  } else {
    PutBE16(l4, record.src_port);
    PutBE16(l4, 53);
    PutBE16(l4, static_cast<std::uint16_t>(8 + dns_wire.size()));
    PutBE16(l4, 0);  // checksum omitted
    l4.insert(l4.end(), dns_wire.begin(), dns_wire.end());
  }

  // IP header.
  std::vector<std::uint8_t> ip;
  const bool v4 = record.src.is_v4();
  if (v4) {
    ip.push_back(0x45);
    ip.push_back(0);
    PutBE16(ip, static_cast<std::uint16_t>(20 + l4.size()));
    PutBE16(ip, 0);      // id
    PutBE16(ip, 0x4000); // don't fragment
    ip.push_back(64);    // ttl
    ip.push_back(tcp ? kProtoTcp : kProtoUdp);
    PutBE16(ip, 0);      // checksum placeholder
    auto src = record.src.v4().ToBytes();
    ip.insert(ip.end(), src.begin(), src.end());
    auto dst = net::Ipv4Address::Parse(kServerV4)->ToBytes();
    ip.insert(ip.end(), dst.begin(), dst.end());
    std::uint16_t checksum = Ipv4Checksum(ip.data(), ip.size());
    ip[10] = static_cast<std::uint8_t>(checksum >> 8);
    ip[11] = static_cast<std::uint8_t>(checksum);
  } else {
    ip.push_back(0x60);
    ip.push_back(0);
    ip.push_back(0);
    ip.push_back(0);
    PutBE16(ip, static_cast<std::uint16_t>(l4.size()));
    ip.push_back(tcp ? kProtoTcp : kProtoUdp);
    ip.push_back(64);  // hop limit
    const auto& src = record.src.v6().bytes();
    ip.insert(ip.end(), src.begin(), src.end());
    // Copy, not reference: bytes() would dangle off the temporary optional.
    const auto dst = net::Ipv6Address::Parse(kServerV6)->bytes();
    ip.insert(ip.end(), dst.begin(), dst.end());
  }

  // Ethernet + pcap record header.
  std::vector<std::uint8_t> frame;
  for (int i = 0; i < 6; ++i) frame.push_back(0x02);  // dst MAC
  for (int i = 0; i < 6; ++i) frame.push_back(0x04);  // src MAC
  PutBE16(frame, v4 ? kEthertypeIpv4 : kEthertypeIpv6);
  frame.insert(frame.end(), ip.begin(), ip.end());
  frame.insert(frame.end(), l4.begin(), l4.end());

  PutLE32(out, static_cast<std::uint32_t>(record.time_us / 1'000'000));
  PutLE32(out, static_cast<std::uint32_t>(record.time_us % 1'000'000));
  PutLE32(out, static_cast<std::uint32_t>(frame.size()));
  PutLE32(out, static_cast<std::uint32_t>(frame.size()));
  out.insert(out.end(), frame.begin(), frame.end());
}

std::optional<std::uint32_t> GetLE32(const std::vector<std::uint8_t>& in,
                                     std::size_t& pos) {
  if (pos + 4 > in.size()) return std::nullopt;
  std::uint32_t v = in[pos] | (in[pos + 1] << 8) | (in[pos + 2] << 16) |
                    (static_cast<std::uint32_t>(in[pos + 3]) << 24);
  pos += 4;
  return v;
}

std::uint16_t GetBE16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

/// Parses one Ethernet frame into a capture record. Returns false for
/// anything that is not a DNS query to port 53.
bool ParseFrame(const std::uint8_t* frame, std::size_t len,
                sim::TimeUs time_us, CaptureRecord& out) {
  if (len < 14) return false;
  std::uint16_t ethertype = GetBE16(frame + 12);
  const std::uint8_t* ip = frame + 14;
  std::size_t ip_len = len - 14;

  std::uint8_t proto = 0;
  const std::uint8_t* l4 = nullptr;
  std::size_t l4_len = 0;
  net::IpAddress src;
  if (ethertype == kEthertypeIpv4) {
    if (ip_len < 20 || (ip[0] >> 4) != 4) return false;
    // An IHL below 5 words would put the transport header inside the
    // fixed IPv4 header.
    std::size_t ihl = static_cast<std::size_t>(ip[0] & 0xf) * 4;
    if (ihl < 20) return false;
    // The total length bounds the datagram: bytes past it are an Ethernet
    // pad or a captured FCS, not payload.
    std::size_t total_len = GetBE16(ip + 2);
    if (total_len < ihl || ip_len < ihl) return false;
    ip_len = std::min(ip_len, total_len);
    proto = ip[9];
    src = net::Ipv4Address::FromBytes({ip[12], ip[13], ip[14], ip[15]});
    l4 = ip + ihl;
    l4_len = ip_len - ihl;
  } else if (ethertype == kEthertypeIpv6) {
    if (ip_len < 40 || (ip[0] >> 4) != 6) return false;
    proto = ip[6];
    net::Ipv6Address::Bytes bytes;
    std::copy(ip + 8, ip + 24, bytes.begin());
    src = net::Ipv6Address(bytes);
    l4 = ip + 40;
    l4_len = std::min<std::size_t>(ip_len - 40, GetBE16(ip + 4));
  } else {
    return false;
  }

  const std::uint8_t* dns_data = nullptr;
  std::size_t dns_len = 0;
  if (proto == kProtoUdp) {
    if (l4_len < 8) return false;
    if (GetBE16(l4 + 2) != 53) return false;  // not to the DNS port
    std::size_t udp_len = GetBE16(l4 + 4);
    if (udp_len < 8) return false;
    out.src_port = GetBE16(l4);
    out.transport = dns::Transport::kUdp;
    dns_data = l4 + 8;
    dns_len = std::min(l4_len, udp_len) - 8;
  } else if (proto == kProtoTcp) {
    if (l4_len < 20) return false;
    if (GetBE16(l4 + 2) != 53) return false;
    // A data offset below 5 words would read the DNS length prefix from
    // inside the fixed TCP header.
    std::size_t header = static_cast<std::size_t>(l4[12] >> 4) * 4;
    if (header < 20 || l4_len < header + 2) return false;
    out.src_port = GetBE16(l4);
    out.transport = dns::Transport::kTcp;
    std::uint16_t framed = GetBE16(l4 + header);
    dns_data = l4 + header + 2;
    dns_len = std::min<std::size_t>(l4_len - header - 2, framed);
  } else {
    return false;
  }

  auto message = dns::Message::Decode(dns_data, dns_len);
  if (!message || message->header.qr || message->questions.empty()) {
    return false;
  }
  out.time_us = time_us;
  out.src = src;
  out.qname = message->questions.front().name;
  out.qtype = message->questions.front().type;
  out.has_edns = message->edns.has_value();
  out.edns_udp_size = message->edns ? message->edns->udp_payload_size : 0;
  out.do_bit = message->edns && message->edns->dnssec_ok;
  out.query_size = static_cast<std::uint16_t>(dns_len);
  return true;
}

}  // namespace

std::vector<std::uint8_t> EncodePcap(const CaptureBuffer& records) {
  std::vector<std::uint8_t> out;
  PutLE32(out, kPcapMagic);
  PutLE16(out, 2);      // version major
  PutLE16(out, 4);      // version minor
  PutLE32(out, 0);      // thiszone
  PutLE32(out, 0);      // sigfigs
  PutLE32(out, 65535);  // snaplen
  PutLE32(out, 1);      // LINKTYPE_ETHERNET
  for (const CaptureRecord& record : records) AppendFrame(out, record);
  return out;
}

std::optional<CaptureBuffer> DecodePcap(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  auto magic = GetLE32(bytes, pos);
  if (!magic || *magic != kPcapMagic) return std::nullopt;
  pos += 2 + 2 + 4 + 4 + 4;  // version..snaplen
  auto linktype = GetLE32(bytes, pos);
  if (!linktype || *linktype != 1) return std::nullopt;

  CaptureBuffer records;
  while (pos < bytes.size()) {
    auto ts_sec = GetLE32(bytes, pos);
    auto ts_usec = GetLE32(bytes, pos);
    auto incl_len = GetLE32(bytes, pos);
    auto orig_len = GetLE32(bytes, pos);
    if (!ts_sec || !ts_usec || !incl_len || !orig_len) break;
    if (pos + *incl_len > bytes.size()) break;
    CaptureRecord record;
    if (ParseFrame(bytes.data() + pos, *incl_len,
                   static_cast<sim::TimeUs>(*ts_sec) * 1'000'000 + *ts_usec,
                   record)) {
      records.push_back(std::move(record));
    }
    pos += *incl_len;
  }
  return records;
}

base::io::IoStatus WritePcapFileStatus(const std::string& path,
                                       const CaptureBuffer& records,
                                       bool framed) {
  std::vector<std::uint8_t> bytes = EncodePcap(records);
  if (framed) {
    return base::io::WriteFramedFile(path, base::io::kTagPcap, bytes);
  }
  return base::io::WriteFileAtomic(path, bytes);
}

base::io::IoStatus ReadPcapFileStatus(const std::string& path,
                                      CaptureBuffer& out) {
  std::vector<std::uint8_t> bytes;
  base::io::IoStatus status = base::io::ReadFileBytes(path, bytes);
  if (!status.ok()) return status;
  std::vector<std::uint8_t> payload;
  bool framed = false;
  status = base::io::UnwrapFrame(bytes, base::io::kTagPcap, payload, framed);
  if (!status.ok()) return status;
  std::optional<CaptureBuffer> decoded = DecodePcap(framed ? payload : bytes);
  if (!decoded) {
    return base::io::IoStatus::Error(
        base::io::IoCode::kPayloadCorrupt,
        framed ? "pcap payload rejected inside an intact frame"
               : "raw pcap file rejected by the decoder");
  }
  out = std::move(*decoded);
  return base::io::IoStatus::Ok();
}

}  // namespace clouddns::capture
