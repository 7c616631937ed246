#include "server/leaf_auth.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include "zone/dnssec.h"

namespace clouddns::server {
namespace {

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

void LeafAuthService::RespondInto(const dns::Message& query,
                                  dns::Message& response) const {
  response.ResetAsResponseTo(query);
  if (query.questions.size() != 1) {
    response.header.rcode = dns::Rcode::kFormErr;
    return;
  }
  const dns::Question& question = query.questions.front();
  response.header.aa = true;

  auto nodata = [&response, &question] {
    dns::SoaRdata soa;
    soa.mname = question.name;
    soa.rname = question.name;
    soa.serial = 1;
    soa.minimum = kAnswerTtl;
    response.authorities.push_back(
        dns::MakeSoa(question.name, soa, kAnswerTtl));
  };

  switch (question.type) {
    case dns::RrType::kA:
      response.answers.push_back(
          dns::MakeA(question.name, SyntheticV4(question.name), kAnswerTtl));
      break;
    case dns::RrType::kAaaa:
      if (HasV6(question.name)) {
        response.answers.push_back(dns::MakeAaaa(
            question.name, SyntheticV6(question.name), kAnswerTtl));
      } else {
        nodata();
      }
      break;
    case dns::RrType::kMx:
      response.answers.push_back(dns::MakeMx(
          question.name, 10, question.name.Child("mail"), kAnswerTtl));
      break;
    case dns::RrType::kTxt:
      response.answers.push_back(
          dns::MakeTxt(question.name, "synthetic-leaf", kAnswerTtl));
      break;
    case dns::RrType::kDnskey: {
      // Validators fetching a leaf zone's keys get realistic RSA-sized
      // material; with a 512-byte EDNS buffer this truncates, which is the
      // classic "TCP is needed for DNSKEY retrieval" path (§4.4).
      for (auto& key : zone::MakeApexDnskeys(question.name, kAnswerTtl)) {
        response.answers.push_back(std::move(key));
      }
      break;
    }
    case dns::RrType::kDs:
      response.answers.push_back(zone::MakeDs(question.name, kAnswerTtl));
      break;
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
  dns::Message& response = response_scratch_;
  RespondInto(decoded, response);
  if (ctx.transport == dns::Transport::kUdp) {
    response.EncodeWithLimitInto(dns::UdpResponseLimit(decoded), wire);
    return;
  }
  response.EncodeInto(wire);
}

}  // namespace clouddns::server
