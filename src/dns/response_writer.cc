#include "dns/response_writer.h"
// lint:hot-path — on the per-query serve path (DESIGN.md §10).

#include <stdexcept>

#include "dns/audit.h"

namespace clouddns::dns {
namespace {

/// Header bytes before the first question.
constexpr std::size_t kHeaderSize = 12;

}  // namespace

ResponseWriter::ResponseWriter(WireBuffer& out, const Header& header,
                               std::span<const Question> questions,
                               const std::optional<EdnsInfo>& edns)
    : out_(out),
      writer_(out),
      header_(header),
      edns_(edns),
      question_count_(static_cast<std::uint16_t>(questions.size())) {
  out_.clear();
  out_.reserve(kClassicUdpLimit);
  out_.resize(kHeaderSize);  // written by Finish
  for (const Question& question : questions) question.Encode(writer_);
  question_end_ = out_.size();
}

ResponseWriter::ResponseWriter(WireBuffer& out, const Message& query)
    : ResponseWriter(out, ResponseHeader(query.header), query.questions,
                     ResponseEdns(query)) {}

void ResponseWriter::Enter(Section section) {
  if (section < section_) {
    throw std::logic_error("dns::ResponseWriter: sections out of order");
  }
  section_ = section;
}

void ResponseWriter::Add(Section section,
                         std::span<const ResourceRecord> records) {
  Enter(section);
  for (const ResourceRecord& record : records) record.Encode(writer_);
  counts_[static_cast<std::size_t>(section)] +=
      static_cast<std::uint16_t>(records.size());
}

WireWriter& ResponseWriter::BeginRecord(Section section, const Name& owner,
                                        RrType type, std::uint32_t ttl) {
  Enter(section);
  ++counts_[static_cast<std::size_t>(section)];
  rdlength_at_ =
      ResourceRecord::EncodeHead(writer_, owner, type, RrClass::kIn, ttl);
  return writer_;
}

void ResponseWriter::EndRecord() {
  ResourceRecord::EncodeTail(writer_, rdlength_at_);
}

void ResponseWriter::WriteOpt() {
  if (!edns_) return;
  // RFC 6891 §6.1.2-3: a root owner, the UDP payload size in CLASS, and
  // the version and DO bit in TTL; no options.
  const std::size_t rdlength_at = ResourceRecord::EncodeHead(
      writer_, Name{}, RrType::kOpt,
      static_cast<RrClass>(edns_->udp_payload_size),
      (static_cast<std::uint32_t>(edns_->version) << 16) |
          (edns_->dnssec_ok ? 0x8000u : 0u));
  ResourceRecord::EncodeTail(writer_, rdlength_at);
}

bool ResponseWriter::Finish(std::size_t limit) {
  WriteOpt();
  const bool truncated = out_.size() > limit;
  if (truncated) {
    // The question is written first and its names point only backwards,
    // so the cut-back message is exactly a fresh header + question + OPT.
    out_.resize(question_end_);
    counts_[0] = counts_[1] = counts_[2] = 0;
    header_.tc = true;
    WriteOpt();
  }
  writer_.PatchU16(0, header_.id);
  writer_.PatchU16(2, PackFlags(header_));
  writer_.PatchU16(4, question_count_);
  writer_.PatchU16(6, counts_[0]);
  writer_.PatchU16(8, counts_[1]);
  writer_.PatchU16(
      10, static_cast<std::uint16_t>(counts_[2] + (edns_ ? 1 : 0)));
  audit::Audit(out_, "dns::ResponseWriter::Finish");
  return truncated;
}

}  // namespace clouddns::dns
