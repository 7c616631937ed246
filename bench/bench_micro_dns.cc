// Microbenchmarks of the DNS wire-format layer: the hot path every
// simulated packet crosses twice (encode at sender, decode at receiver).
#include <benchmark/benchmark.h>

#include "dns/message.h"

using namespace clouddns;

namespace {

dns::Message MakeReferralResponse() {
  dns::Message msg = dns::Message::MakeQuery(
      42, *dns::Name::Parse("www.dom123.nl"), dns::RrType::kA,
      dns::EdnsInfo{1232, true, 0});
  msg.header.qr = true;
  for (int i = 1; i <= 3; ++i) {
    msg.authorities.push_back(dns::MakeNs(
        *dns::Name::Parse("dom123.nl"),
        *dns::Name::Parse("ns" + std::to_string(i) + ".dom123.nl"), 86400));
    msg.additionals.push_back(dns::MakeA(
        *dns::Name::Parse("ns" + std::to_string(i) + ".dom123.nl"),
        net::Ipv4Address(100, 70, 0, static_cast<std::uint8_t>(i)), 86400));
  }
  return msg;
}

void BM_EncodeQuery(benchmark::State& state) {
  dns::Message query = dns::Message::MakeQuery(
      7, *dns::Name::Parse("www.example.nl"), dns::RrType::kAaaa,
      dns::EdnsInfo{4096, true, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(query.Encode());
  }
}
BENCHMARK(BM_EncodeQuery);

void BM_DecodeQuery(benchmark::State& state) {
  dns::WireBuffer wire = dns::Message::MakeQuery(
                             7, *dns::Name::Parse("www.example.nl"),
                             dns::RrType::kAaaa, dns::EdnsInfo{4096, true, 0})
                             .Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::Decode(wire));
  }
}
BENCHMARK(BM_DecodeQuery);

void BM_EncodeReferral(benchmark::State& state) {
  dns::Message msg = MakeReferralResponse();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msg.Encode());
  }
}
BENCHMARK(BM_EncodeReferral);

void BM_DecodeReferral(benchmark::State& state) {
  dns::WireBuffer wire = MakeReferralResponse().Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Message::Decode(wire));
  }
}
BENCHMARK(BM_DecodeReferral);

/// What a validating resolver gets back from a signed TLD on a DO=1 query:
/// the NS set, the child's DS with its RRSIG, and dual-stack glue.
dns::Message MakeSignedReferralResponse() {
  dns::Message msg = MakeReferralResponse();
  const dns::Name cut = *dns::Name::Parse("dom123.nl");
  dns::DsRdata ds;
  ds.key_tag = 4711;
  ds.algorithm = 13;
  ds.digest_type = 2;
  ds.digest.assign(32, 0x5a);
  msg.authorities.push_back(
      {cut, dns::RrType::kDs, dns::RrClass::kIn, 86400, std::move(ds)});
  dns::RrsigRdata sig;
  sig.type_covered = static_cast<std::uint16_t>(dns::RrType::kDs);
  sig.algorithm = 13;
  sig.labels = 2;
  sig.original_ttl = 86400;
  sig.expiration = 1735689600;
  sig.inception = 1514764800;
  sig.key_tag = 1234;
  sig.signer = *dns::Name::Parse("nl");
  sig.signature.assign(64, 0xa5);
  msg.authorities.push_back(
      {cut, dns::RrType::kRrsig, dns::RrClass::kIn, 86400, std::move(sig)});
  for (int i = 1; i <= 3; ++i) {
    net::Ipv6Address::Bytes v6{0x20, 0x01, 0x0d, 0xb8};
    v6[15] = static_cast<std::uint8_t>(i);
    msg.additionals.push_back(dns::MakeAaaa(
        *dns::Name::Parse("ns" + std::to_string(i) + ".dom123.nl"),
        net::Ipv6Address(v6), 86400));
  }
  return msg;
}

// The decode the resolver runs on every upstream answer: into one reused
// message, whose section slots and rdata buffers survive between decodes.
void BM_DecodeIntoSignedReferral(benchmark::State& state) {
  dns::WireBuffer wire = MakeSignedReferralResponse().Encode();
  dns::Message reused;
  for (auto _ : state) {
    bool ok = dns::Message::DecodeInto(wire.data(), wire.size(), reused);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(reused);
  }
}
BENCHMARK(BM_DecodeIntoSignedReferral);

void BM_EncodeWithTruncationCheck(benchmark::State& state) {
  dns::Message msg = MakeReferralResponse();
  for (auto _ : state) {
    bool truncated = false;
    benchmark::DoNotOptimize(msg.EncodeWithLimit(512, &truncated));
  }
}
BENCHMARK(BM_EncodeWithTruncationCheck);

void BM_NameParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::Name::Parse("www.some-domain.co.nz"));
  }
}
BENCHMARK(BM_NameParse);

void BM_NameCompare(benchmark::State& state) {
  dns::Name a = *dns::Name::Parse("WWW.Example.NL");
  dns::Name b = *dns::Name::Parse("www.example.nl");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Compare(b));
  }
}
BENCHMARK(BM_NameCompare);

}  // namespace

BENCHMARK_MAIN();
