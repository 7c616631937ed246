// Parameterized codec sweep: the columnar codec must round-trip streams
// of every size and content shape, and must beat the per-packet pcap
// export on dictionary-friendly (realistic) streams.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "capture/columnar.h"
#include "capture/pcap.h"
#include "sim/random.h"

namespace clouddns::capture {
namespace {

// 64-bit so CodecParam has no padding: gtest prints the raw bytes of the
// param into each test name, and padding would print stack garbage there.
enum class Shape : std::uint64_t {
  kEmpty,         // zero records
  kSingle,        // one record
  kRealistic,     // few sources/names, skewed — the production shape
  kAdversarial,   // every field unique, dictionaries useless
  kAllV6,         // IPv6-only sources
  kConstant,      // identical records (maximal compression)
};

struct CodecParam {
  Shape shape;
  std::size_t count;
};
static_assert(sizeof(CodecParam) == sizeof(Shape) + sizeof(std::size_t));

CaptureBuffer MakeStream(const CodecParam& param) {
  CaptureBuffer records;
  sim::Rng rng(0xc0dec);
  for (std::size_t i = 0; i < param.count; ++i) {
    CaptureRecord r;
    switch (param.shape) {
      case Shape::kEmpty:
      case Shape::kSingle:
      case Shape::kRealistic:
        r.time_us = 1'000'000 + 1000 * i;
        r.src = net::Ipv4Address(
            static_cast<std::uint32_t>(0x0a000000u + rng.NextBelow(300)));
        r.qname = *dns::Name::Parse(
            "dom" + std::to_string(rng.NextBelow(100)) + ".nl");
        r.qtype = rng.Bernoulli(0.6) ? dns::RrType::kA : dns::RrType::kNs;
        r.rcode = rng.Bernoulli(0.12) ? dns::Rcode::kNxDomain
                                      : dns::Rcode::kNoError;
        r.edns_udp_size = 1232;
        r.has_edns = true;
        break;
      case Shape::kAdversarial: {
        r.time_us = rng.Next() >> 20;  // wildly out of order
        r.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.Next()));
        r.qname = *dns::Name::Parse("u" + std::to_string(i) + "-" +
                                    std::to_string(rng.NextBelow(1u << 30)) +
                                    ".example");
        r.qtype = static_cast<dns::RrType>(1 + rng.NextBelow(250));
        r.rcode = static_cast<dns::Rcode>(rng.NextBelow(6));
        r.src_port = static_cast<std::uint16_t>(rng.Next());
        r.query_size = static_cast<std::uint16_t>(rng.Next());
        r.response_size = static_cast<std::uint16_t>(rng.Next());
        r.tcp_handshake_rtt_us = static_cast<std::uint32_t>(rng.Next());
        r.transport = rng.Bernoulli(0.5) ? dns::Transport::kTcp
                                         : dns::Transport::kUdp;
        r.has_edns = rng.Bernoulli(0.5);
        r.do_bit = rng.Bernoulli(0.5);
        r.tc = rng.Bernoulli(0.5);
        break;
      }
      case Shape::kAllV6: {
        net::Ipv6Address::Bytes bytes{};
        bytes[0] = 0x2a;
        bytes[15] = static_cast<std::uint8_t>(rng.NextBelow(200));
        r.src = net::Ipv6Address(bytes);
        r.time_us = 1000 * i;
        r.qname = *dns::Name::Parse("v6.nl");
        break;
      }
      case Shape::kConstant:
        r.time_us = 42;
        r.src = *net::IpAddress::Parse("8.8.8.8");
        r.qname = *dns::Name::Parse("nl");
        r.qtype = dns::RrType::kSoa;
        break;
    }
    records.push_back(std::move(r));
  }
  return records;
}

class CaptureCodecTest : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CaptureCodecTest, ColumnarRoundTrips) {
  CaptureBuffer records = MakeStream(GetParam());
  auto decoded = DecodeColumnar(EncodeColumnar(records));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, records);
}

TEST_P(CaptureCodecTest, ColumnarWinsOnRealisticStreams) {
  const CodecParam& param = GetParam();
  if (param.shape != Shape::kRealistic && param.shape != Shape::kConstant) {
    GTEST_SKIP() << "size comparison only meaningful for compressible shapes";
  }
  if (param.count < 100) GTEST_SKIP() << "too small for a fair comparison";
  CaptureBuffer records = MakeStream(param);
  EXPECT_LT(EncodeColumnar(records).size(), EncodePcap(records).size());
}

std::string ShapeName(const ::testing::TestParamInfo<CodecParam>& info) {
  static const char* const kNames[] = {"Empty",       "Single", "Realistic",
                                       "Adversarial", "AllV6",  "Constant"};
  return std::string(kNames[static_cast<int>(info.param.shape)]) +
         std::to_string(info.param.count);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CaptureCodecTest,
    ::testing::Values(CodecParam{Shape::kEmpty, 0},
                      CodecParam{Shape::kSingle, 1},
                      CodecParam{Shape::kRealistic, 100},
                      CodecParam{Shape::kRealistic, 5000},
                      CodecParam{Shape::kAdversarial, 100},
                      CodecParam{Shape::kAdversarial, 3000},
                      CodecParam{Shape::kAllV6, 500},
                      CodecParam{Shape::kConstant, 2000}),
    ShapeName);

}  // namespace
}  // namespace clouddns::capture
