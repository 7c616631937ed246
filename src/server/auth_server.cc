#include "server/auth_server.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include "zone/dnssec.h"

namespace clouddns::server {
namespace {

void AttachNsecWithSig(const zone::Zone& zone, const dns::Name& owner,
                       const dns::Name& next,
                       std::vector<dns::ResourceRecord>& section) {
  // NSEC TTL follows the zone's negative-caching TTL (SOA MINIMUM), as in
  // real signed zones; the root's long TTL is what makes aggressive
  // caching there so effective.
  const std::uint32_t ttl = zone.NegativeTtl();
  dns::NsecRdata nsec;
  nsec.next = next;
  nsec.types = {dns::RrType::kNs, dns::RrType::kRrsig, dns::RrType::kNsec};
  section.push_back(dns::ResourceRecord{owner, dns::RrType::kNsec,
                                        dns::RrClass::kIn, ttl,
                                        std::move(nsec)});
  dns::RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(dns::RrType::kNsec);
  sig.algorithm = zone::kMockAlgorithm;
  sig.labels = static_cast<std::uint8_t>(owner.LabelCount());
  sig.original_ttl = ttl;
  sig.key_tag = zone::ZskTagFor(zone.apex());
  sig.signer = zone.apex();
  sig.signature = zone::MockSignature(zone.apex(), owner, dns::RrType::kNsec);
  section.push_back(dns::ResourceRecord{owner, dns::RrType::kRrsig,
                                        dns::RrClass::kIn, ttl,
                                        std::move(sig)});
}

// NXDOMAIN denial: a real *range* NSEC between the denied name's existing
// canonical neighbours. Besides adding the response bytes that push DO=1
// negatives past small EDNS buffers, the range is what lets resolvers do
// aggressive NSEC caching (RFC 8198) — the mechanism §4.2.3 credits for
// the 2020 drop in cloud junk at the root.
void AttachRangeDenial(const zone::Zone& zone, const dns::Name& denied,
                       std::vector<dns::ResourceRecord>& section) {
  const auto range = zone.DenialNeighbors(denied);
  AttachNsecWithSig(zone, range.prev, range.next, section);
}

// NODATA denial ("white lies", RFC 4470 style): an NSEC at the name itself
// whose type bitmap omits the denied type.
void AttachNoDataProof(const zone::Zone& zone, const dns::Name& denied,
                       std::vector<dns::ResourceRecord>& section) {
  // The "next" name is the denied name's immediate successor so the range
  // covers nothing else; fall back to the apex when at the length limit.
  if (denied.WireLength() + 4 <= dns::Name::kMaxWireLength) {
    AttachNsecWithSig(zone, denied, denied.Child("000"), section);
  } else {
    AttachNsecWithSig(zone, denied, zone.apex(), section);
  }
}

}  // namespace

void AuthServer::Serve(std::shared_ptr<const zone::Zone> zone) {
  zones_.push_back(std::move(zone));
}

const zone::Zone* AuthServer::BestZoneFor(const dns::Name& qname) const {
  const zone::Zone* best = nullptr;
  std::size_t best_labels = 0;
  for (const auto& zone : zones_) {
    if (!qname.IsSubdomainOf(zone->apex())) continue;
    std::size_t labels = zone->apex().LabelCount();
    if (best == nullptr || labels > best_labels) {
      best = zone.get();
      best_labels = labels;
    }
  }
  return best;
}

void AuthServer::AttachRrsigs(const zone::Zone& zone, const dns::Name& owner,
                              dns::RrType covered,
                              std::vector<dns::ResourceRecord>& section) const {
  for (const auto& sig : zone.Find(owner, dns::RrType::kRrsig)) {
    const auto& rdata = std::get<dns::RrsigRdata>(sig.rdata);
    if (rdata.type_covered == static_cast<std::uint16_t>(covered)) {
      section.push_back(sig);
    }
  }
}

void AuthServer::RespondInto(const dns::Message& query,
                             dns::Message& response) const {
  response.ResetAsResponseTo(query);
  if (query.questions.size() != 1 ||
      query.header.opcode != dns::Opcode::kQuery) {
    response.header.rcode = query.questions.empty() ? dns::Rcode::kFormErr
                                                    : dns::Rcode::kNotImp;
    return;
  }
  const dns::Question& question = query.questions.front();
  const bool want_dnssec = query.edns && query.edns->dnssec_ok;

  const zone::Zone* zone = BestZoneFor(question.name);
  if (zone == nullptr) {
    response.header.rcode = dns::Rcode::kRefused;
    return;
  }

  // The lookup returns spans into the zone image; each section appends
  // from them, keeping the capacity the scratch response already has.
  const zone::LookupResult result = zone->Lookup(question.name, question.type);
  auto append = [](std::vector<dns::ResourceRecord>& section,
                   zone::RecordSpan records) {
    section.insert(section.end(), records.begin(), records.end());
  };
  switch (result.status) {
    case zone::LookupStatus::kAnswer:
      response.header.aa = true;
      append(response.answers, result.records);
      if (want_dnssec && zone->IsSigned()) {
        AttachRrsigs(*zone, question.name, result.records.front().type,
                     response.answers);
      }
      break;
    case zone::LookupStatus::kDelegation:
      response.header.aa = false;
      append(response.authorities, result.records);
      if (want_dnssec) {
        append(response.authorities, result.ds);
        if (zone->IsSigned() && !result.ds.empty()) {
          AttachRrsigs(*zone, result.records.front().name, dns::RrType::kDs,
                       response.authorities);
        }
      }
      zone->AppendGlue(result.records, response.additionals);
      break;
    case zone::LookupStatus::kNxDomain:
      response.header.aa = true;
      response.header.rcode = dns::Rcode::kNxDomain;
      append(response.authorities, result.soa);
      if (want_dnssec && zone->IsSigned()) {
        AttachRrsigs(*zone, zone->apex(), dns::RrType::kSoa,
                     response.authorities);
        AttachRangeDenial(*zone, question.name, response.authorities);
      }
      break;
    case zone::LookupStatus::kNoData:
      response.header.aa = true;
      append(response.authorities, result.soa);
      if (want_dnssec && zone->IsSigned()) {
        AttachRrsigs(*zone, zone->apex(), dns::RrType::kSoa,
                     response.authorities);
        AttachNoDataProof(*zone, question.name, response.authorities);
      }
      break;
    case zone::LookupStatus::kNotInZone:
      response.header.rcode = dns::Rcode::kRefused;
      break;
  }
}

void AuthServer::HandlePacket(const sim::PacketContext& ctx,
                              const dns::WireBuffer& query_wire,
                              dns::WireBuffer& wire) {
  wire.clear();
  dns::Message& query = query_scratch_;
  if (!dns::Message::DecodeInto(query_wire.data(), query_wire.size(), query) ||
      query.header.qr) {
    return;  // drop garbage silently, as real servers do
  }

  if (query.questions.size() == 1 &&
      query.questions.front().type == dns::RrType::kAxfr) {
    // Zone transfers are refused (no server here allows one), bypassing
    // RRL and capture: they are never part of the studied query stream.
    response_scratch_.ResetAsResponseTo(query);
    response_scratch_.header.rcode = dns::Rcode::kRefused;
    return response_scratch_.EncodeInto(wire);
  }

  dns::Message& response = response_scratch_;
  bool slipped = false;
  if (!rrl_.Allow(ctx.src.address, ctx.time_us)) {
    // RRL slip: minimal truncated response; resolver should retry via TCP.
    // TCP queries are never rate-limited (the handshake proves the source).
    if (ctx.transport == dns::Transport::kUdp) {
      response.ResetAsResponseTo(query);
      response.header.tc = true;
      slipped = true;
    } else {
      RespondInto(query, response);
    }
  } else {
    RespondInto(query, response);
  }

  bool truncated = false;
  if (ctx.transport == dns::Transport::kUdp) {
    response.EncodeWithLimitInto(dns::UdpResponseLimit(query), wire,
                                 &truncated);
    if (slipped) truncated = true;
  } else {
    response.EncodeInto(wire);
  }

  if (config_.capture_enabled) {
    capture::CaptureRecord record;
    record.time_us = ctx.time_us;
    record.server_id = config_.server_id;
    record.site_id = ctx.server_site;
    record.src = ctx.src.address;
    record.src_port = ctx.src.port;
    record.transport = ctx.transport;
    if (!query.questions.empty()) {
      record.qname = query.questions.front().name;
      record.qtype = query.questions.front().type;
    }
    record.rcode = response.header.rcode;
    record.has_edns = query.edns.has_value();
    record.edns_udp_size = query.edns ? query.edns->udp_payload_size : 0;
    record.do_bit = query.edns && query.edns->dnssec_ok;
    record.tc = truncated;
    record.query_size = static_cast<std::uint16_t>(query_wire.size());
    record.response_size = static_cast<std::uint16_t>(wire.size());
    record.tcp_handshake_rtt_us =
        ctx.transport == dns::Transport::kTcp ? ctx.handshake_rtt_us : 0;
    capture_.push_back(std::move(record));
  }
}

}  // namespace clouddns::server
