#include "dns/response_writer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace clouddns::dns {
namespace {

Name N(const char* text) { return *Name::Parse(text); }

Message Query(std::optional<EdnsInfo> edns = EdnsInfo{1232, true, 0}) {
  return Message::MakeQuery(17, N("www.example.nl"), RrType::kA, edns);
}

TEST(ResponseWriterTest, WritesWhatMessageEncodeWrites) {
  const Message query = Query();
  Message expected = Message::MakeResponse(query);
  expected.header.aa = true;
  expected.answers.push_back(
      MakeA(N("www.example.nl"), net::Ipv4Address(192, 0, 2, 1), 60));
  expected.authorities.push_back(
      MakeNs(N("example.nl"), N("ns1.example.nl"), 3600));
  expected.additionals.push_back(
      MakeA(N("ns1.example.nl"), net::Ipv4Address(192, 0, 2, 53), 3600));

  WireBuffer wire;
  ResponseWriter out(wire, query);
  out.header().aa = true;
  // The A record in place, the rest from spans.
  WireWriter& rdata =
      out.BeginRecord(Section::kAnswer, N("www.example.nl"), RrType::kA, 60);
  const std::uint8_t address[] = {192, 0, 2, 1};
  rdata.WriteBytes(address, sizeof(address));
  out.EndRecord();
  out.Add(Section::kAuthority, expected.authorities);
  out.Add(Section::kAdditional, expected.additionals);
  // The message fits a classic UDP payload, so the limit cuts nothing.
  EXPECT_FALSE(out.Finish(512));
  EXPECT_EQ(wire, expected.Encode());
}

TEST(ResponseWriterTest, OverLimitKeepsHeaderQuestionAndOptWithTc) {
  const Message query = Query(EdnsInfo{512, true, 0});
  std::vector<ResourceRecord> big;
  for (int i = 0; i < 20; ++i) {
    big.push_back(MakeTxt(N("www.example.nl"), std::string(60, 'x'), 60));
  }
  Message expected = Message::MakeResponse(query);
  expected.header.rcode = Rcode::kNxDomain;
  expected.header.tc = true;
  for (Section section : {Section::kAnswer, Section::kAuthority}) {
    SCOPED_TRACE(static_cast<int>(section));
    WireBuffer wire;
    ResponseWriter out(wire, query);
    out.header().rcode = Rcode::kNxDomain;
    out.Add(section, big);
    EXPECT_TRUE(out.Finish(512));
    EXPECT_EQ(wire, expected.Encode());
  }
}

TEST(ResponseWriterTest, SectionsFillInWireOrder) {
  const Message query = Query(std::nullopt);
  const ResourceRecord a =
      MakeA(N("www.example.nl"), net::Ipv4Address(192, 0, 2, 1), 60);
  WireBuffer wire;
  ResponseWriter out(wire, query);
  out.Add(Section::kAuthority, a);
  out.Add(Section::kAuthority, a);  // the same section again is fine
  EXPECT_THROW(out.Add(Section::kAnswer, a), std::logic_error);
  EXPECT_THROW(
      (void)out.BeginRecord(Section::kAnswer, a.name, RrType::kA, 60),
      std::logic_error);
}

}  // namespace
}  // namespace clouddns::dns
