#include "server/auth_server.h"
// lint:hot-path — on the per-query serve/capture path (DESIGN.md §10).

#include <algorithm>
#include <string_view>

#include "zone/dnssec.h"

namespace clouddns::server {
namespace {

using dns::Section;

/// The types every denial NSEC lists.
constexpr dns::RrType kProofTypes[] = {dns::RrType::kNs, dns::RrType::kRrsig,
                                       dns::RrType::kNsec};

/// Writes the RRSIG over the RRset that `rrset` starts with, from its
/// first record; nothing when `rrset` is empty.
void SignRrset(const zone::Zone& zone, zone::RecordSpan rrset,
               Section section, dns::ResponseWriter& out) {
  if (rrset.empty()) return;
  const dns::ResourceRecord& first = rrset.front();
  zone::WriteRrsig(zone.apex(), first.name, first.type, first.ttl,
                   zone::kMockWindow, section, out);
}

/// Writes the answer to ANY (`with_records`) or to qtype=RRSIG at an owner
/// of a signed zone, whose `records` are sorted by type: its records of a
/// type below RRSIG, an RRSIG over each of its RRsets in type order, then
/// its records of a type above RRSIG. The RRSIGs sit where RRSIG's type
/// number sorts among the owner's types.
void WriteOwnerWithRrsigs(const zone::Zone& zone, zone::RecordSpan records,
                          bool with_records, dns::ResponseWriter& out) {
  const auto below = static_cast<std::size_t>(
      std::ranges::find_if(records,
                           [](const dns::ResourceRecord& rr) {
                             return rr.type > dns::RrType::kRrsig;
                           }) -
      records.begin());
  if (with_records) out.Add(Section::kAnswer, records.first(below));
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 0 || records[i - 1].type != records[i].type) {
      SignRrset(zone, records.subspan(i), Section::kAnswer, out);
    }
  }
  if (with_records) out.Add(Section::kAnswer, records.subspan(below));
}

/// Writes an NSEC at `owner` and its RRSIG into the authority section, the
/// type bitmap and the mock signature in place. The NSEC's next name is
/// `next`, under the label `next_label` when that is not empty.
void WriteNsecWithSig(const zone::Zone& zone, const dns::Name& owner,
                      std::string_view next_label, const dns::Name& next,
                      dns::ResponseWriter& out) {
  // NSEC TTL follows the zone's negative-caching TTL (SOA MINIMUM), as in
  // real signed zones; the root's long TTL is what makes aggressive
  // caching there so effective.
  const std::uint32_t ttl = zone.NegativeTtl();
  dns::WireWriter& nsec =
      out.BeginRecord(Section::kAuthority, owner, dns::RrType::kNsec, ttl);
  if (!next_label.empty()) {
    nsec.WriteU8(static_cast<std::uint8_t>(next_label.size()));
    nsec.WriteBytes(reinterpret_cast<const std::uint8_t*>(next_label.data()),
                    next_label.size());
  }
  nsec.WriteName(next, /*compress=*/false);
  dns::EncodeTypeBitmap(kProofTypes, nsec);
  out.EndRecord();
  // Unlike an RRset's, the proof's signature carries no validity window
  // (both times are 0).
  zone::WriteRrsig(zone.apex(), owner, dns::RrType::kNsec, ttl,
                   zone::SignatureWindow{}, Section::kAuthority, out);
}

// NXDOMAIN denial: a real *range* NSEC between the denied name's existing
// canonical neighbours. Besides adding the response bytes that push DO=1
// negatives past small EDNS buffers, the range is what lets resolvers do
// aggressive NSEC caching (RFC 8198) — the mechanism §4.2.3 credits for
// the 2020 drop in cloud junk at the root.
void WriteRangeDenial(const zone::Zone& zone, const dns::Name& denied,
                      dns::ResponseWriter& out) {
  const auto range = zone.DenialNeighbors(denied);
  WriteNsecWithSig(zone, range.prev, {}, range.next, out);
}

// NODATA denial ("white lies", RFC 4470 style): an NSEC at the name itself
// whose type bitmap omits the denied type.
void WriteNoDataProof(const zone::Zone& zone, const dns::Name& denied,
                      dns::ResponseWriter& out) {
  // The "next" name is the denied name's immediate successor, 000.<denied>,
  // so the range covers nothing else; fall back to the apex when at the
  // length limit.
  if (denied.WireLength() + 4 <= dns::Name::kMaxWireLength) {
    WriteNsecWithSig(zone, denied, "000", denied, out);
  } else {
    WriteNsecWithSig(zone, denied, {}, zone.apex(), out);
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

void AuthServer::Answer(const dns::Message& query,
                        dns::ResponseWriter& out) const {
  dns::Header& header = out.header();
  if (query.questions.size() != 1 ||
      query.header.opcode != dns::Opcode::kQuery) {
    header.rcode = query.questions.empty() ? dns::Rcode::kFormErr
                                           : dns::Rcode::kNotImp;
    return;
  }
  const dns::Question& question = query.questions.front();
  const bool want_dnssec = query.edns && query.edns->dnssec_ok;

  const zone::Zone* zone = BestZoneFor(question.name);
  if (zone == nullptr) {
    header.rcode = dns::Rcode::kRefused;
    return;
  }

  // The lookup returns spans into the zone image, written straight to the
  // wire: no record is copied. A signed zone stores no RRSIG, so
  // qtype=RRSIG looks up every RRset at the name and signs each.
  const bool sign = zone->IsSigned();
  const bool rrsig_query = sign && question.type == dns::RrType::kRrsig;
  const zone::LookupResult result = zone->Lookup(
      question.name, rrsig_query ? dns::RrType::kAny : question.type);
  switch (result.status) {
    case zone::LookupStatus::kAnswer:
      header.aa = true;
      if (sign && (rrsig_query || question.type == dns::RrType::kAny)) {
        WriteOwnerWithRrsigs(*zone, result.records, !rrsig_query, out);
        // DO=1 repeats the RRSIG over an ANY answer's first RRset when its
        // type sorts below RRSIG (ROADMAP "Deferred").
        if (want_dnssec && !rrsig_query &&
            result.records.front().type < dns::RrType::kRrsig) {
          SignRrset(*zone, result.records, Section::kAnswer, out);
        }
      } else {
        out.Add(Section::kAnswer, result.records);
        if (want_dnssec && sign) {
          SignRrset(*zone, result.records, Section::kAnswer, out);
        }
      }
      break;
    case zone::LookupStatus::kDelegation:
      header.aa = false;
      out.Add(Section::kAuthority, result.records);
      if (want_dnssec) {
        out.Add(Section::kAuthority, result.ds);
        if (sign) SignRrset(*zone, result.ds, Section::kAuthority, out);
      }
      zone->ForEachGlue(result.records, [&out](zone::RecordSpan glue) {
        out.Add(Section::kAdditional, glue);
      });
      break;
    case zone::LookupStatus::kNxDomain:
      header.aa = true;
      header.rcode = dns::Rcode::kNxDomain;
      out.Add(Section::kAuthority, result.soa);
      if (want_dnssec && sign) {
        SignRrset(*zone, result.soa, Section::kAuthority, out);
        WriteRangeDenial(*zone, question.name, out);
      }
      break;
    case zone::LookupStatus::kNoData:
      header.aa = true;
      out.Add(Section::kAuthority, result.soa);
      if (want_dnssec && sign) {
        SignRrset(*zone, result.soa, Section::kAuthority, out);
        WriteNoDataProof(*zone, question.name, out);
      }
      break;
    case zone::LookupStatus::kNotInZone:
      header.rcode = dns::Rcode::kRefused;
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

  dns::ResponseWriter out(wire, query);
  if (query.questions.size() == 1 &&
      query.questions.front().type == dns::RrType::kAxfr) {
    // Zone transfers are refused (no server here allows one), bypassing
    // RRL and capture: they are never part of the studied query stream.
    out.header().rcode = dns::Rcode::kRefused;
    out.Finish();
    return;
  }

  // RRL slip: a minimal truncated response; the resolver should retry via
  // TCP. TCP queries are never rate-limited (the handshake proves the
  // source), but every query spends the source's tokens.
  const bool udp = ctx.transport == dns::Transport::kUdp;
  const bool slipped = !rrl_.Allow(ctx.src.address, ctx.time_us) && udp;
  if (slipped) {
    out.header().tc = true;
  } else {
    Answer(query, out);
  }
  const bool truncated =
      out.Finish(udp ? dns::UdpResponseLimit(query)
                     : dns::ResponseWriter::kNoLimit) ||
      slipped;

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
    record.rcode = out.header().rcode;
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
