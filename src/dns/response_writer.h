// Writes one DNS message straight into a wire buffer.
//
// The writer lays down a header placeholder and the question, then the
// records of each section in wire order: copied from spans (a zone
// lookup's, or a Message's sections), or built in place by a caller that
// writes their RDATA through the underlying WireWriter. Finish() appends
// the OPT record, cuts an over-limit message back to header, question and
// OPT with TC set, and back-fills the header and its section counts.
// Message::Encode* and the authoritative servers all encode through it,
// so every message has one record encoder, one compression table and one
// audit call (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>

#include "dns/message.h"
#include "dns/record.h"
#include "dns/wire.h"

namespace clouddns::dns {

/// The record sections of a message, in wire order.
enum class Section : std::uint8_t { kAnswer, kAuthority, kAdditional };

class ResponseWriter {
 public:
  /// A Finish limit that never truncates (TCP, and Message::Encode).
  static constexpr std::size_t kNoLimit =
      std::numeric_limits<std::size_t>::max();

  /// Starts a message in `out`, cleared with its capacity kept: room for
  /// the header, then `questions`. `edns`, when set, becomes the OPT record
  /// Finish appends.
  ResponseWriter(WireBuffer& out, const Header& header,
                 std::span<const Question> questions,
                 const std::optional<EdnsInfo>& edns);
  /// Starts the response to `query`: Message::MakeResponse's skeleton.
  ResponseWriter(WireBuffer& out, const Message& query);

  ResponseWriter(const ResponseWriter&) = delete;
  ResponseWriter& operator=(const ResponseWriter&) = delete;

  /// The header Finish writes; set its rcode, AA or TC any time before.
  [[nodiscard]] Header& header() { return header_; }

  /// Appends `records` to `section`. Sections fill in wire order: adding to
  /// a section before the one last written throws std::logic_error.
  void Add(Section section, std::span<const ResourceRecord> records);
  void Add(Section section, const ResourceRecord& record) {
    Add(section, std::span<const ResourceRecord>(&record, 1));
  }

  /// Starts one class-IN record of `section` whose RDATA the caller writes
  /// through the returned writer; EndRecord back-fills its RDLENGTH.
  [[nodiscard]] WireWriter& BeginRecord(Section section, const Name& owner,
                                        RrType type, std::uint32_t ttl);
  void EndRecord();

  /// Appends the OPT record and writes the header. A message longer than
  /// `limit` bytes is cut back to header, question and OPT with TC set, as
  /// an authoritative does before the client retries over TCP. Returns
  /// whether it was cut. Call once, last.
  bool Finish(std::size_t limit = kNoLimit);

 private:
  void Enter(Section section);
  void WriteOpt();

  WireBuffer& out_;
  WireWriter writer_;
  Header header_;
  std::optional<EdnsInfo> edns_;
  std::uint16_t question_count_ = 0;
  std::size_t question_end_ = 0;  ///< Where the record sections start.
  std::uint16_t counts_[3] = {0, 0, 0};
  Section section_ = Section::kAnswer;
  std::size_t rdlength_at_ = 0;  ///< The open BeginRecord's RDLENGTH.
};

}  // namespace clouddns::dns
