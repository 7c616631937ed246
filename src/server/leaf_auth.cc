#include "server/leaf_auth.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include <string_view>

#include "zone/dnssec.h"

namespace clouddns::server {
namespace {

using dns::Section;

/// TTL of every synthesized answer, and the SOA MINIMUM of its NODATA.
constexpr std::uint32_t kAnswerTtl = 300;

}  // namespace

net::Ipv4Address LeafAuthService::SyntheticV4(const dns::Name& name) {
  // 100.96.0.0/12-ish synthetic space, never colliding with fleet or
  // authoritative service addresses.
  std::uint64_t h = name.PresentationHash();
  return net::Ipv4Address(0x64600000u | (static_cast<std::uint32_t>(h) &
                                         0x001fffffu));
}

net::Ipv6Address LeafAuthService::SyntheticV6(const dns::Name& name) {
  std::uint64_t h = name.PresentationHash() * 0x9e3779b97f4a7c15ull;
  net::Ipv6Address::Bytes bytes{};
  bytes[0] = 0x20;
  bytes[1] = 0x01;
  bytes[2] = 0x0d;
  bytes[3] = 0xb8;
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(h >> (8 * i));
  }
  return net::Ipv6Address(bytes);
}

bool LeafAuthService::HasV6(const dns::Name& name) const {
  return static_cast<double>(name.PresentationHash() % 10000) <
         config_.v6_fraction * 10000.0;
}

void LeafAuthService::Answer(const dns::Message& query,
                             dns::ResponseWriter& out) const {
  if (query.questions.size() != 1) {
    out.header().rcode = dns::Rcode::kFormErr;
    return;
  }
  const dns::Name& qname = query.questions.front().name;
  out.header().aa = true;
  // Every answer is one RRset at qname, its RDATA written in place.
  auto begin = [&out, &qname](dns::RrType type) -> dns::WireWriter& {
    return out.BeginRecord(Section::kAnswer, qname, type, kAnswerTtl);
  };
  auto nodata = [&out, &qname] {
    dns::WireWriter& soa = out.BeginRecord(Section::kAuthority, qname,
                                           dns::RrType::kSoa, kAnswerTtl);
    soa.WriteName(qname);  // MNAME
    soa.WriteName(qname);  // RNAME
    soa.WriteU32(1);       // SERIAL
    soa.WriteU32(0);       // REFRESH
    soa.WriteU32(0);       // RETRY
    soa.WriteU32(0);       // EXPIRE
    soa.WriteU32(kAnswerTtl);  // MINIMUM
    out.EndRecord();
  };

  switch (query.questions.front().type) {
    case dns::RrType::kA: {
      const auto bytes = SyntheticV4(qname).ToBytes();
      begin(dns::RrType::kA).WriteBytes(bytes.data(), bytes.size());
      out.EndRecord();
      break;
    }
    case dns::RrType::kAaaa:
      if (HasV6(qname)) {
        const net::Ipv6Address address = SyntheticV6(qname);
        begin(dns::RrType::kAaaa)
            .WriteBytes(address.bytes().data(), address.bytes().size());
        out.EndRecord();
      } else {
        nodata();
      }
      break;
    case dns::RrType::kMx: {
      dns::WireWriter& mx = begin(dns::RrType::kMx);
      mx.WriteU16(10);
      mx.WriteName(qname.Child("mail"));
      out.EndRecord();
      break;
    }
    case dns::RrType::kTxt: {
      constexpr std::string_view kText = "synthetic-leaf";
      dns::WireWriter& txt = begin(dns::RrType::kTxt);
      txt.WriteU8(static_cast<std::uint8_t>(kText.size()));
      txt.WriteBytes(reinterpret_cast<const std::uint8_t*>(kText.data()),
                     kText.size());
      out.EndRecord();
      break;
    }
    case dns::RrType::kDnskey:
      // Validators fetching a leaf zone's keys get realistic RSA-sized
      // material; with a 512-byte EDNS buffer this truncates, which is the
      // classic "TCP is needed for DNSKEY retrieval" path (§4.4). The
      // keys are zone::MakeApexDnskeys', KSK first.
      for (std::uint16_t flags : {zone::kKskFlags, zone::kZskFlags}) {
        dns::WireWriter& key = begin(dns::RrType::kDnskey);
        key.WriteU16(flags);
        key.WriteU8(3);  // protocol
        key.WriteU8(zone::kMockAlgorithm);
        zone::FillMockPublicKey(qname, flags, key.Extend(zone::kMockKeySize));
        out.EndRecord();
      }
      break;
    case dns::RrType::kDs: {
      // zone::MakeDs for qname.
      dns::WireWriter& ds = begin(dns::RrType::kDs);
      ds.WriteU16(zone::KskTagFor(qname));
      ds.WriteU8(zone::kMockAlgorithm);
      ds.WriteU8(2);  // digest type: SHA-256
      zone::FillMockDsDigest(qname, ds.Extend(zone::kMockDigestSize));
      out.EndRecord();
      break;
    }
    case dns::RrType::kNs:
      // Minimized NS probes below the delegation point: the name exists
      // but carries no NS RRset of its own.
      nodata();
      break;
    default:
      nodata();
      break;
  }
}

void LeafAuthService::HandlePacket(const sim::PacketContext& ctx,
                                   const dns::WireBuffer& query,
                                   dns::WireBuffer& wire) {
  wire.clear();
  ++handled_;
  dns::Message& decoded = query_scratch_;
  if (!dns::Message::DecodeInto(query.data(), query.size(), decoded) ||
      decoded.header.qr) {
    return;
  }
  dns::ResponseWriter out(wire, decoded);
  Answer(decoded, out);
  out.Finish(ctx.transport == dns::Transport::kUdp
                 ? dns::UdpResponseLimit(decoded)
                 : dns::ResponseWriter::kNoLimit);
}

}  // namespace clouddns::server
