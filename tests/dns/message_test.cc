#include "dns/message.h"
#include "dns/response_writer.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>

namespace clouddns::dns {
namespace {

TEST(MessageTest, QueryRoundTrip) {
  Message query = Message::MakeQuery(0x1234, *Name::Parse("example.nl"),
                                     RrType::kA, EdnsInfo{1232, true, 0});
  WireBuffer wire = query.Encode();
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, query);
  EXPECT_EQ(decoded->header.id, 0x1234);
  ASSERT_TRUE(decoded->edns.has_value());
  EXPECT_EQ(decoded->edns->udp_payload_size, 1232);
  EXPECT_TRUE(decoded->edns->dnssec_ok);
}

TEST(MessageTest, QueryWithoutEdnsRoundTrip) {
  Message query =
      Message::MakeQuery(7, *Name::Parse("example.nz"), RrType::kAaaa);
  auto decoded = Message::Decode(query.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->edns.has_value());
  EXPECT_EQ(decoded->questions[0].type, RrType::kAaaa);
}

TEST(MessageTest, ResponseRoundTripWithAllSections) {
  Message query = Message::MakeQuery(42, *Name::Parse("www.example.nl"),
                                     RrType::kA, EdnsInfo{4096, false, 0});
  Message resp = Message::MakeResponse(query);
  resp.header.aa = true;
  resp.answers.push_back(
      MakeA(*Name::Parse("www.example.nl"), net::Ipv4Address(192, 0, 2, 1), 300));
  resp.authorities.push_back(
      MakeNs(*Name::Parse("example.nl"), *Name::Parse("ns1.example.nl"), 3600));
  resp.additionals.push_back(
      MakeA(*Name::Parse("ns1.example.nl"), net::Ipv4Address(192, 0, 2, 53), 3600));

  auto decoded = Message::Decode(resp.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, resp);
  EXPECT_TRUE(decoded->header.qr);
  EXPECT_TRUE(decoded->header.aa);
  EXPECT_EQ(decoded->answers.size(), 1u);
  EXPECT_EQ(decoded->authorities.size(), 1u);
  EXPECT_EQ(decoded->additionals.size(), 1u);
}

TEST(MessageTest, MakeResponseEchoesQuestionAndId) {
  Message query = Message::MakeQuery(99, *Name::Parse("nl"), RrType::kSoa,
                                     EdnsInfo{512, true, 0});
  Message resp = Message::MakeResponse(query);
  EXPECT_EQ(resp.header.id, 99);
  EXPECT_TRUE(resp.header.qr);
  ASSERT_EQ(resp.questions.size(), 1u);
  EXPECT_EQ(resp.questions[0], query.questions[0]);
  ASSERT_TRUE(resp.edns.has_value());
  EXPECT_TRUE(resp.edns->dnssec_ok);  // DO bit echoed
  // The server advertises its own size, not the query's.
  EXPECT_EQ(resp.edns->udp_payload_size, kServerUdpPayloadSize);
}

TEST(MessageTest, UdpResponseLimitClampsTheAdvertisedSize) {
  struct Case {
    std::optional<EdnsInfo> edns;
    std::size_t limit;
  };
  const Case cases[] = {
      {std::nullopt, kClassicUdpLimit},
      {EdnsInfo{100, false, 0}, kClassicUdpLimit},
      {EdnsInfo{512, false, 0}, 512},
      {EdnsInfo{1232, true, 0}, 1232},
      {EdnsInfo{65535, true, 0}, kServerUdpPayloadSize},
  };
  for (const Case& c : cases) {
    const Message query =
        Message::MakeQuery(1, *Name::Parse("nl"), RrType::kA, c.edns);
    EXPECT_EQ(UdpResponseLimit(query), c.limit)
        << (c.edns ? c.edns->udp_payload_size : 0);
  }
}

TEST(MessageTest, RcodeAndFlagsSurvive) {
  Message msg = Message::MakeQuery(1, *Name::Parse("junk.example"), RrType::kA);
  msg.header.qr = true;
  msg.header.rcode = Rcode::kNxDomain;
  msg.header.ra = true;
  auto decoded = Message::Decode(msg.Encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.rcode, Rcode::kNxDomain);
  EXPECT_TRUE(decoded->header.ra);
}

// A message written through the servers' truncating path: the same writer
// Encode() uses, finished under a UDP payload limit.
WireBuffer EncodeUnderLimit(const Message& msg, std::size_t limit,
                            bool* truncated) {
  WireBuffer out;
  ResponseWriter writer(out, msg.header, msg.questions, msg.edns);
  writer.Add(Section::kAnswer, msg.answers);
  writer.Add(Section::kAuthority, msg.authorities);
  writer.Add(Section::kAdditional, msg.additionals);
  *truncated = writer.Finish(limit);
  return out;
}

TEST(MessageTest, TruncationDropsSectionsAndSetsTc) {
  Message resp = Message::MakeQuery(5, *Name::Parse("big.example.nl"),
                                    RrType::kTxt, EdnsInfo{512, false, 0});
  resp.header.qr = true;
  for (int i = 0; i < 40; ++i) {
    resp.answers.push_back(MakeTxt(*Name::Parse("big.example.nl"),
                                   std::string(50, 'x'), 60));
  }
  bool truncated = false;
  WireBuffer wire = EncodeUnderLimit(resp, 512, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_LE(wire.size(), 512u);

  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->header.tc);
  EXPECT_TRUE(decoded->answers.empty());
  // Question and EDNS survive truncation.
  EXPECT_EQ(decoded->questions.size(), 1u);
  EXPECT_TRUE(decoded->edns.has_value());
}

TEST(MessageTest, NoTruncationWhenFits) {
  Message resp = Message::MakeQuery(5, *Name::Parse("example.nl"), RrType::kA);
  resp.header.qr = true;
  resp.answers.push_back(
      MakeA(*Name::Parse("example.nl"), net::Ipv4Address(1, 2, 3, 4), 60));
  bool truncated = true;
  WireBuffer wire = EncodeUnderLimit(resp, 512, &truncated);
  EXPECT_FALSE(truncated);
  EXPECT_EQ(wire, resp.Encode());
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->header.tc);
  EXPECT_EQ(decoded->answers.size(), 1u);
}

TEST(MessageTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Message::Decode(WireBuffer{}).has_value());
  EXPECT_FALSE(Message::Decode(WireBuffer{1, 2, 3}).has_value());
  // Header claims a question that is not present.
  WireBuffer lying = {0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(Message::Decode(lying).has_value());
}

TEST(MessageTest, DecodeRejectsDuplicateOpt) {
  Message query = Message::MakeQuery(1, *Name::Parse("example.nl"), RrType::kA,
                                     EdnsInfo{4096, false, 0});
  WireBuffer wire = query.Encode();
  // Append a second OPT record and bump ARCOUNT.
  WireWriter writer(wire);
  writer.WriteU8(0);  // root name
  writer.WriteU16(static_cast<std::uint16_t>(RrType::kOpt));
  writer.WriteU16(4096);
  writer.WriteU32(0);
  writer.WriteU16(0);
  wire[11] = 2;  // ARCOUNT low byte
  EXPECT_FALSE(Message::Decode(wire).has_value());
}

TEST(MessageTest, DecodeNeverCrashesOnMutatedInput) {
  // Property test: take a valid message, flip random bytes, and require
  // Decode to either fail cleanly or produce a message that re-encodes.
  Message resp = Message::MakeQuery(77, *Name::Parse("www.example.nl"),
                                    RrType::kA, EdnsInfo{1232, true, 0});
  resp.header.qr = true;
  resp.answers.push_back(
      MakeA(*Name::Parse("www.example.nl"), net::Ipv4Address(192, 0, 2, 1), 300));
  resp.authorities.push_back(
      MakeNs(*Name::Parse("example.nl"), *Name::Parse("ns1.example.nl"), 3600));
  WireBuffer base = resp.Encode();

  std::mt19937_64 rng(1035);
  for (int i = 0; i < 2000; ++i) {
    WireBuffer mutated = base;
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng());
    }
    auto decoded = Message::Decode(mutated);
    if (decoded) {
      (void)decoded->Encode();  // must not throw
    }
  }
}

TEST(MessageTest, DecodeNeverCrashesOnRandomBytes) {
  std::mt19937_64 rng(4096);
  for (int i = 0; i < 2000; ++i) {
    WireBuffer noise(rng() % 128);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    auto decoded = Message::Decode(noise);
    if (decoded) (void)decoded->Encode();
  }
}

TEST(MessageTest, ToStringMentionsKeyFacts) {
  Message query = Message::MakeQuery(3, *Name::Parse("example.nz"),
                                     RrType::kNs, EdnsInfo{1232, false, 0});
  std::string text = query.ToString();
  EXPECT_NE(text.find("example.nz"), std::string::npos);
  EXPECT_NE(text.find("NS"), std::string::npos);
  EXPECT_NE(text.find("1232"), std::string::npos);
}

TEST(MessageTest, CompressionShrinksRealResponses) {
  Message resp;
  resp.header.qr = true;
  resp.questions.push_back(Question{*Name::Parse("www.example.nl"), RrType::kA,
                                    RrClass::kIn});
  for (int i = 0; i < 4; ++i) {
    resp.authorities.push_back(MakeNs(*Name::Parse("example.nl"),
                                      *Name::Parse("ns" + std::to_string(i) +
                                                   ".example.nl"),
                                      3600));
  }
  WireBuffer wire = resp.Encode();
  // Without compression each NS would repeat "example.nl" twice; with it the
  // whole message stays well under the naive size.
  std::size_t naive = 12;
  naive += resp.questions[0].name.WireLength() + 4;
  for (const auto& rr : resp.authorities) {
    naive += rr.name.WireLength() + 10 +
             std::get<NsRdata>(rr.rdata).nameserver.WireLength();
  }
  EXPECT_LT(wire.size(), naive - 30);
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->authorities.size(), 4u);
}


ResourceRecord MakeRrsig(const Name& owner, RrType covered,
                         const Name& signer, std::size_t signature_bytes,
                         std::uint32_t ttl) {
  RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(covered);
  sig.algorithm = 13;
  sig.labels = static_cast<std::uint8_t>(owner.LabelCount());
  sig.original_ttl = ttl;
  sig.expiration = 1'600'000'000;
  sig.inception = 1'590'000'000;
  sig.key_tag = 4711;
  sig.signer = signer;
  for (std::size_t i = 0; i < signature_bytes; ++i) {
    sig.signature.push_back(static_cast<std::uint8_t>(i * 7 + 1));
  }
  return {owner, RrType::kRrsig, RrClass::kIn, ttl, std::move(sig)};
}

/// A DO=1 referral from a signed parent: NS set, DS, its RRSIG, glue.
Message SignedReferral() {
  Message msg = Message::MakeQuery(11, *Name::Parse("www.example.nl"),
                                   RrType::kA, EdnsInfo{4096, true, 0});
  msg.header.qr = true;
  const Name cut = *Name::Parse("example.nl");
  const Name ns1 = *Name::Parse("ns1.example.nl");
  const Name ns2 = *Name::Parse("ns2.example.nl");
  msg.authorities.push_back(MakeNs(cut, ns1, 3600));
  msg.authorities.push_back(MakeNs(cut, ns2, 3600));
  DsRdata ds;
  ds.key_tag = 31337;
  ds.algorithm = 13;
  ds.digest_type = 2;
  ds.digest.assign(32, 0xab);
  msg.authorities.push_back({cut, RrType::kDs, RrClass::kIn, 3600, ds});
  msg.authorities.push_back(
      MakeRrsig(cut, RrType::kDs, *Name::Parse("nl"), 64, 3600));
  msg.additionals.push_back(MakeA(ns1, net::Ipv4Address(192, 0, 2, 53), 3600));
  msg.additionals.push_back(MakeAaaa(
      ns1, *net::Ipv6Address::Parse("2001:db8::53"), 3600));
  msg.additionals.push_back(MakeA(ns2, net::Ipv4Address(192, 0, 2, 54), 3600));
  return msg;
}

/// A signed NXDOMAIN: SOA, an NSEC denial range, and an RRSIG over each.
Message SignedNxDomain() {
  Message msg = Message::MakeQuery(12, *Name::Parse("nosuch.nl"), RrType::kA,
                                   EdnsInfo{1232, true, 0});
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.rcode = Rcode::kNxDomain;
  const Name apex = *Name::Parse("nl");
  SoaRdata soa;
  soa.mname = *Name::Parse("ns1.dns.nl");
  soa.rname = *Name::Parse("hostmaster.dns.nl");
  soa.serial = 2020102701;
  soa.minimum = 600;
  msg.authorities.push_back(MakeSoa(apex, soa, 600));
  msg.authorities.push_back(MakeRrsig(apex, RrType::kSoa, apex, 64, 600));
  const Name prev = *Name::Parse("nosotros.nl");
  NsecRdata nsec;
  nsec.next = *Name::Parse("nosy.nl");
  nsec.types = {RrType::kNs, RrType::kDs, RrType::kRrsig, RrType::kNsec};
  msg.authorities.push_back({prev, RrType::kNsec, RrClass::kIn, 600, nsec});
  msg.authorities.push_back(MakeRrsig(prev, RrType::kNsec, apex, 64, 600));
  return msg;
}

/// A DNSKEY answer: KSK and ZSK with the RRSIG over the set.
Message DnskeyAnswer() {
  const Name apex = *Name::Parse("example.nl");
  Message msg = Message::MakeQuery(13, apex, RrType::kDnskey,
                                   EdnsInfo{4096, true, 0});
  msg.header.qr = true;
  msg.header.aa = true;
  for (std::uint16_t flags : {257, 256}) {
    DnskeyRdata key;
    key.flags = flags;
    key.algorithm = 13;
    key.public_key.assign(flags == 257 ? 64 : 48,
                          static_cast<std::uint8_t>(flags));
    msg.answers.push_back({apex, RrType::kDnskey, RrClass::kIn, 3600, key});
  }
  msg.answers.push_back(MakeRrsig(apex, RrType::kDnskey, apex, 64, 3600));
  return msg;
}

/// A short unsigned A answer.
Message ShortAnswer() {
  Message msg = Message::MakeQuery(14, *Name::Parse("www.example.nl"),
                                   RrType::kA);
  msg.header.qr = true;
  msg.header.aa = true;
  msg.answers.push_back(MakeA(*Name::Parse("www.example.nl"),
                              net::Ipv4Address(192, 0, 2, 1), 300));
  return msg;
}

TEST(MessageTest, MutatedSurvivorsReencodeStablyAndReuseMatchesFresh) {
  // Two regressions for the pooled decode path. (1) Mutants that Decode
  // accepts must reach a re-encode fixed point: Encode(Decode(Encode(m)))
  // is bit-identical to Encode(m) — the encoder is a canonicalizer, so one
  // round trip must normalize fully. (2) DecodeInto into a reused (dirty)
  // message must agree exactly with a fresh Decode, including after the
  // reused message was left in the unspecified post-failure state. The
  // base message rotates through a signed referral, a signed NXDOMAIN, a
  // DNSKEY answer and a short A answer, so reused slots change rdata type,
  // shrink and grow between decodes.
  const std::vector<WireBuffer> bases = {
      SignedReferral().Encode(), SignedNxDomain().Encode(),
      DnskeyAnswer().Encode(), ShortAnswer().Encode()};

  Message reused;  // deliberately carries state across iterations
  std::mt19937_64 rng(8767);
  std::vector<int> survivors(bases.size(), 0);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t which = static_cast<std::size_t>(i) % bases.size();
    WireBuffer mutated = bases[which];
    int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % mutated.size()] = static_cast<std::uint8_t>(rng());
    }
    auto fresh = Message::Decode(mutated);
    const bool reused_ok =
        Message::DecodeInto(mutated.data(), mutated.size(), reused);
    ASSERT_EQ(reused_ok, fresh.has_value());
    if (!fresh) continue;
    ++survivors[which];
    EXPECT_EQ(reused, *fresh);

    WireBuffer first = fresh->Encode();
    auto redecoded = Message::Decode(first);
    ASSERT_TRUE(redecoded.has_value());
    EXPECT_EQ(redecoded->Encode(), first);
  }
  // The flip distribution must actually produce survivors of every base,
  // or the test is vacuous.
  for (int count : survivors) EXPECT_GT(count, 0);
}

TEST(MessageTest, RedecodingSameShapeReusesSectionAndRdataBuffers) {
  // Decoding a signed answer into a message that already holds one of the
  // same shape decodes over its slots: neither the answer section nor the
  // RRSIG's signature buffer is reallocated. The signature is given spare
  // capacity first, so a buffer freed and allocated again (which may well
  // land at the same address) cannot pass for a reused one.
  const WireBuffer wire = DnskeyAnswer().Encode();
  Message reused;
  ASSERT_TRUE(Message::DecodeInto(wire.data(), wire.size(), reused));
  ASSERT_EQ(reused.answers.size(), 3u);
  const ResourceRecord* answers = reused.answers.data();
  auto signature_of = [&reused]() -> std::vector<std::uint8_t>& {
    return std::get<RrsigRdata>(reused.answers[2].rdata).signature;
  };
  signature_of().reserve(1024);
  const std::uint8_t* signature = signature_of().data();

  ASSERT_TRUE(Message::DecodeInto(wire.data(), wire.size(), reused));
  EXPECT_EQ(reused.answers.data(), answers);
  EXPECT_EQ(signature_of().data(), signature);
  EXPECT_GE(signature_of().capacity(), 1024u);
  EXPECT_EQ(reused, *Message::Decode(wire));

  // Every slot decoded over one of its own type (NS, DS, RRSIG, SOA, NSEC,
  // A, AAAA) ends up equal to a fresh decode.
  for (const Message& shape : {SignedReferral(), SignedNxDomain()}) {
    const WireBuffer again = shape.Encode();
    ASSERT_TRUE(Message::DecodeInto(again.data(), again.size(), reused));
    ASSERT_TRUE(Message::DecodeInto(again.data(), again.size(), reused));
    EXPECT_EQ(reused, shape);
  }
}

}  // namespace
}  // namespace clouddns::dns
