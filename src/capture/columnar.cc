#include "capture/columnar.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include <cstdio>
#include <unordered_map>

#include "base/lifetime.h"
#include "capture/varint.h"

namespace clouddns::capture {
namespace {

constexpr std::uint32_t kMagic = 0x43444e53;  // "CDNS"
constexpr std::uint32_t kVersion = 1;

enum ColumnId : std::uint8_t {
  kColTime = 0,
  kColServer = 1,
  kColSite = 2,
  kColSrcDict = 3,
  kColSrcIndex = 4,
  kColPort = 5,
  kColFlags = 6,  // transport | has_edns | do_bit | tc packed per record
  kColQnameDict = 7,
  kColQnameIndex = 8,
  kColQtype = 9,
  kColRcode = 10,
  kColEdnsSize = 11,
  kColQuerySize = 12,
  kColResponseSize = 13,
  kColTcpRtt = 14,
  kColumnCount = 15,
};

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::optional<std::uint32_t> GetU32(const std::vector<std::uint8_t>& in,
                                    std::size_t& pos) {
  if (pos + 4 > in.size()) return std::nullopt;
  std::uint32_t v = (static_cast<std::uint32_t>(in[pos]) << 24) |
                    (static_cast<std::uint32_t>(in[pos + 1]) << 16) |
                    (static_cast<std::uint32_t>(in[pos + 2]) << 8) |
                    static_cast<std::uint32_t>(in[pos + 3]);
  pos += 4;
  return v;
}

void PutAddress(std::vector<std::uint8_t>& out, const net::IpAddress& addr) {
  if (addr.is_v4()) {
    out.push_back(4);
    auto bytes = addr.v4().ToBytes();
    out.insert(out.end(), bytes.begin(), bytes.end());
  } else {
    out.push_back(6);
    const auto& bytes = addr.v6().bytes();
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
}

/// A borrowed view of one column's bytes with a read cursor. Decoding
/// walks raw pointers over the loaded file image instead of copying every
/// column into its own vector first.
struct Cursor {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;

  [[nodiscard]] bool empty() const { return p == end; }

  [[nodiscard]] std::optional<std::uint64_t> Varint() {
    std::uint64_t value = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      if (p == end) return std::nullopt;
      std::uint8_t byte = *p++;
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
    return std::nullopt;
  }
};

std::optional<net::IpAddress> GetAddress(Cursor& c) {
  if (c.empty()) return std::nullopt;
  std::uint8_t family = *c.p++;
  if (family == 4) {
    if (c.end - c.p < 4) return std::nullopt;
    std::array<std::uint8_t, 4> bytes{c.p[0], c.p[1], c.p[2], c.p[3]};
    c.p += 4;
    return net::IpAddress(net::Ipv4Address::FromBytes(bytes));
  }
  if (family == 6) {
    if (c.end - c.p < 16) return std::nullopt;
    net::Ipv6Address::Bytes bytes;
    std::copy(c.p, c.p + 16, bytes.begin());
    c.p += 16;
    return net::IpAddress(net::Ipv6Address(bytes));
  }
  return std::nullopt;
}

/// Length-prefixed string as a borrowed view; no std::string is built.
/// The view borrows from the cursor's underlying block (DESIGN.md §11):
/// it must be consumed before the cursor's buffer is refilled.
std::optional<std::string_view> GetStringView(Cursor& c
                                                  CLOUDDNS_LIFETIMEBOUND) {
  auto len = c.Varint();
  if (!len || static_cast<std::uint64_t>(c.end - c.p) < *len) {
    return std::nullopt;
  }
  std::string_view view(reinterpret_cast<const char*>(c.p),
                        static_cast<std::size_t>(*len));
  c.p += *len;
  return view;
}

// lint:allow(hot-alloc): dictionary side table, one entry per distinct qname
void PutString(std::vector<std::uint8_t>& out, const std::string& s) {
  PutVarint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

std::uint8_t PackFlags(const CaptureRecord& r) {
  std::uint8_t flags = 0;
  if (r.transport == dns::Transport::kTcp) flags |= 1;
  if (r.has_edns) flags |= 2;
  if (r.do_bit) flags |= 4;
  if (r.tc) flags |= 8;
  return flags;
}

void UnpackFlags(std::uint8_t flags, CaptureRecord& r) {
  r.transport = (flags & 1) ? dns::Transport::kTcp : dns::Transport::kUdp;
  r.has_edns = flags & 2;
  r.do_bit = flags & 4;
  r.tc = flags & 8;
}

}  // namespace

std::vector<std::uint8_t> EncodeColumnar(const CaptureBuffer& records) {
  std::vector<std::uint8_t> columns[kColumnCount];

  // Dictionaries.
  std::unordered_map<net::IpAddress, std::uint64_t, net::IpAddressHash>
      src_dict;
  std::vector<const net::IpAddress*> src_order;
  // Keyed on the Name itself (cached hash, case-insensitive equality), so
  // building the dictionary never constructs a ToKey() string.
  std::unordered_map<dns::Name, std::uint64_t, dns::NameHash, dns::NameEqual>
      qname_dict;
  std::vector<const dns::Name*> qname_order;

  std::int64_t prev_time = 0;
  for (const CaptureRecord& r : records) {
    PutVarint(columns[kColTime],
              ZigzagEncode(static_cast<std::int64_t>(r.time_us) - prev_time));
    prev_time = static_cast<std::int64_t>(r.time_us);
    PutVarint(columns[kColServer], r.server_id);
    PutVarint(columns[kColSite], r.site_id);

    auto [src_it, src_new] = src_dict.try_emplace(r.src, src_dict.size());
    if (src_new) src_order.push_back(&src_it->first);
    PutVarint(columns[kColSrcIndex], src_it->second);

    PutVarint(columns[kColPort], r.src_port);
    columns[kColFlags].push_back(PackFlags(r));

    auto [q_it, q_new] = qname_dict.try_emplace(r.qname, qname_dict.size());
    if (q_new) qname_order.push_back(&r.qname);
    PutVarint(columns[kColQnameIndex], q_it->second);

    PutVarint(columns[kColQtype], static_cast<std::uint16_t>(r.qtype));
    PutVarint(columns[kColRcode], static_cast<std::uint8_t>(r.rcode));
    PutVarint(columns[kColEdnsSize], r.edns_udp_size);
    PutVarint(columns[kColQuerySize], r.query_size);
    PutVarint(columns[kColResponseSize], r.response_size);
    PutVarint(columns[kColTcpRtt], r.tcp_handshake_rtt_us);
  }

  PutVarint(columns[kColSrcDict], src_order.size());
  for (const auto* addr : src_order) PutAddress(columns[kColSrcDict], *addr);
  PutVarint(columns[kColQnameDict], qname_order.size());
  for (const auto* name : qname_order) {
    // lint:allow(hot-alloc): rendered once per distinct qname (dict insert)
    PutString(columns[kColQnameDict], name->ToString());
  }

  std::vector<std::uint8_t> out;
  PutU32(out, kMagic);
  PutU32(out, kVersion);
  PutVarint(out, records.size());
  for (std::uint8_t id = 0; id < kColumnCount; ++id) {
    out.push_back(id);
    PutVarint(out, columns[id].size());
    out.insert(out.end(), columns[id].begin(), columns[id].end());
  }
  return out;
}

std::optional<CaptureBuffer> DecodeColumnar(
    const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = 0;
  auto magic = GetU32(bytes, pos);
  auto version = GetU32(bytes, pos);
  if (!magic || *magic != kMagic || !version || *version != kVersion) {
    return std::nullopt;
  }
  auto count = GetVarint(bytes, pos);
  if (!count) return std::nullopt;

  Cursor columns[kColumnCount];
  bool seen[kColumnCount] = {};
  while (pos < bytes.size()) {
    std::uint8_t id = bytes[pos++];
    auto len = GetVarint(bytes, pos);
    if (!len || pos + *len > bytes.size()) return std::nullopt;
    if (id >= kColumnCount || seen[id]) return std::nullopt;
    seen[id] = true;
    columns[id] = Cursor{bytes.data() + pos, bytes.data() + pos + *len};
    pos += *len;
  }
  for (bool s : seen) {
    if (!s) return std::nullopt;
  }

  // Dictionaries first.
  std::vector<net::IpAddress> src_dict;
  {
    Cursor& c = columns[kColSrcDict];
    auto n = c.Varint();
    if (!n) return std::nullopt;
    src_dict.reserve(*n);
    for (std::uint64_t i = 0; i < *n; ++i) {
      auto addr = GetAddress(c);
      if (!addr) return std::nullopt;
      src_dict.push_back(*addr);
    }
  }
  std::vector<dns::Name> qname_dict;
  {
    Cursor& c = columns[kColQnameDict];
    auto n = c.Varint();
    if (!n) return std::nullopt;
    qname_dict.reserve(*n);
    for (std::uint64_t i = 0; i < *n; ++i) {
      auto text = GetStringView(c);
      if (!text) return std::nullopt;
      auto name = dns::Name::Parse(*text);
      if (!name) return std::nullopt;
      qname_dict.push_back(std::move(*name));
    }
  }

  CaptureBuffer records;
  records.reserve(*count);
  std::int64_t prev_time = 0;
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto time_delta = columns[kColTime].Varint();
    auto server = columns[kColServer].Varint();
    auto site = columns[kColSite].Varint();
    auto src_index = columns[kColSrcIndex].Varint();
    auto port = columns[kColPort].Varint();
    auto qname_index = columns[kColQnameIndex].Varint();
    auto qtype = columns[kColQtype].Varint();
    auto rcode = columns[kColRcode].Varint();
    auto edns = columns[kColEdnsSize].Varint();
    auto qsize = columns[kColQuerySize].Varint();
    auto rsize = columns[kColResponseSize].Varint();
    auto rtt = columns[kColTcpRtt].Varint();
    if (!time_delta || !server || !site || !src_index || !port ||
        !qname_index || !qtype || !rcode || !edns || !qsize || !rsize ||
        !rtt) {
      return std::nullopt;
    }
    if (columns[kColFlags].empty()) return std::nullopt;
    if (*src_index >= src_dict.size() || *qname_index >= qname_dict.size()) {
      return std::nullopt;
    }

    CaptureRecord& r = records.emplace_back();
    prev_time += ZigzagDecode(*time_delta);
    r.time_us = static_cast<sim::TimeUs>(prev_time);
    r.server_id = static_cast<std::uint32_t>(*server);
    r.site_id = static_cast<std::uint32_t>(*site);
    r.src = src_dict[*src_index];
    r.src_port = static_cast<std::uint16_t>(*port);
    UnpackFlags(*columns[kColFlags].p++, r);
    r.qname = qname_dict[*qname_index];
    r.qtype = static_cast<dns::RrType>(*qtype);
    r.rcode = static_cast<dns::Rcode>(*rcode);
    r.edns_udp_size = static_cast<std::uint16_t>(*edns);
    r.query_size = static_cast<std::uint16_t>(*qsize);
    r.response_size = static_cast<std::uint16_t>(*rsize);
    r.tcp_handshake_rtt_us = static_cast<std::uint32_t>(*rtt);
  }
  return records;
}

// lint:allow(hot-alloc): file path, once per capture file.
base::io::IoStatus WriteCaptureFileStatus(const std::string& path,
                                          const CaptureBuffer& records) {
  return base::io::WriteFramedFile(path, base::io::kTagCapture,
                                   EncodeColumnar(records));
}

// lint:allow(hot-alloc): file path, once per capture file.
base::io::IoStatus ReadCaptureFileStatus(const std::string& path,
                                         CaptureBuffer& out) {
  std::vector<std::uint8_t> payload;
  base::io::IoStatus status =
      base::io::ReadFramedFile(path, base::io::kTagCapture, payload);
  if (!status.ok()) return status;
  std::optional<CaptureBuffer> decoded = DecodeColumnar(payload);
  if (!decoded) {
    return base::io::IoStatus::Error(
        base::io::IoCode::kPayloadCorrupt,
        "columnar payload rejected inside an intact frame");
  }
  out = std::move(*decoded);
  return base::io::IoStatus::Ok();
}

}  // namespace clouddns::capture
