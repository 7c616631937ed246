// Parameterized property sweep: for every supported RDATA type, randomly
// generated records must survive a full message encode/decode round trip,
// both alone and packed into multi-record responses with name compression.
#include <gtest/gtest.h>

#include <random>

#include "dns/message.h"

namespace clouddns::dns {
namespace {

class RdataRoundTripTest : public ::testing::TestWithParam<RrType> {
 protected:
  std::mt19937_64 rng_{20201027};

  std::string RandomLabel(std::size_t max_len) {
    std::size_t len = 1 + rng_() % max_len;
    std::string label;
    for (std::size_t i = 0; i < len; ++i) {
      label += static_cast<char>('a' + rng_() % 26);
    }
    return label;
  }

  Name RandomName() {
    std::vector<std::string> labels;
    std::size_t count = 1 + rng_() % 4;
    for (std::size_t i = 0; i < count; ++i) labels.push_back(RandomLabel(12));
    return Name::FromLabels(std::move(labels));
  }

  std::vector<std::uint8_t> RandomBytes(std::size_t max_len) {
    std::vector<std::uint8_t> bytes(1 + rng_() % max_len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng_());
    return bytes;
  }

  Rdata RandomRdata(RrType type) {
    switch (type) {
      case RrType::kA:
        return ARdata{net::Ipv4Address(static_cast<std::uint32_t>(rng_()))};
      case RrType::kAaaa: {
        net::Ipv6Address::Bytes bytes;
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng_());
        return AaaaRdata{net::Ipv6Address(bytes)};
      }
      case RrType::kNs:
        return NsRdata{RandomName()};
      case RrType::kCname:
        return CnameRdata{RandomName()};
      case RrType::kPtr:
        return PtrRdata{RandomName()};
      case RrType::kMx:
        return MxRdata{static_cast<std::uint16_t>(rng_()), RandomName()};
      case RrType::kTxt: {
        TxtRdata txt;
        std::size_t strings = 1 + rng_() % 3;
        for (std::size_t i = 0; i < strings; ++i) {
          txt.strings.push_back(RandomLabel(40));
        }
        return txt;
      }
      case RrType::kSoa: {
        SoaRdata soa;
        soa.mname = RandomName();
        soa.rname = RandomName();
        soa.serial = static_cast<std::uint32_t>(rng_());
        soa.refresh = static_cast<std::uint32_t>(rng_());
        soa.retry = static_cast<std::uint32_t>(rng_());
        soa.expire = static_cast<std::uint32_t>(rng_());
        soa.minimum = static_cast<std::uint32_t>(rng_());
        return soa;
      }
      case RrType::kSrv:
        return SrvRdata{static_cast<std::uint16_t>(rng_()),
                        static_cast<std::uint16_t>(rng_()),
                        static_cast<std::uint16_t>(rng_()), RandomName()};
      case RrType::kDs:
        return DsRdata{static_cast<std::uint16_t>(rng_()),
                       static_cast<std::uint8_t>(rng_()),
                       static_cast<std::uint8_t>(rng_()), RandomBytes(48)};
      case RrType::kDnskey:
        return DnskeyRdata{static_cast<std::uint16_t>(rng_()), 3,
                           static_cast<std::uint8_t>(rng_()),
                           RandomBytes(260)};
      case RrType::kRrsig: {
        RrsigRdata sig;
        sig.type_covered = static_cast<std::uint16_t>(rng_() % 260);
        sig.algorithm = static_cast<std::uint8_t>(rng_());
        sig.labels = static_cast<std::uint8_t>(rng_() % 5);
        sig.original_ttl = static_cast<std::uint32_t>(rng_());
        sig.expiration = static_cast<std::uint32_t>(rng_());
        sig.inception = static_cast<std::uint32_t>(rng_());
        sig.key_tag = static_cast<std::uint16_t>(rng_());
        sig.signer = RandomName();
        sig.signature = RandomBytes(260);
        return sig;
      }
      case RrType::kNsec: {
        NsecRdata nsec;
        nsec.next = RandomName();
        std::size_t types = 1 + rng_() % 6;
        for (std::size_t i = 0; i < types; ++i) {
          nsec.types.push_back(static_cast<RrType>(1 + rng_() % 255));
        }
        std::sort(nsec.types.begin(), nsec.types.end());
        nsec.types.erase(std::unique(nsec.types.begin(), nsec.types.end()),
                         nsec.types.end());
        return nsec;
      }
      default:  // NSEC3, NSEC3PARAM: no typed form, raw bytes round-trip
        return RawRdata{RandomBytes(64)};
    }
  }
};

TEST_P(RdataRoundTripTest, SurvivesSingleRecordMessage) {
  for (int round = 0; round < 50; ++round) {
    ResourceRecord rr;
    rr.name = RandomName();
    rr.type = GetParam();
    rr.ttl = static_cast<std::uint32_t>(rng_());
    rr.rdata = RandomRdata(GetParam());

    Message msg;
    msg.header.id = static_cast<std::uint16_t>(rng_());
    msg.header.qr = true;
    msg.questions.push_back(Question{rr.name, rr.type, RrClass::kIn});
    msg.answers.push_back(rr);

    auto decoded = Message::Decode(msg.Encode());
    ASSERT_TRUE(decoded.has_value()) << ToString(GetParam());
    ASSERT_EQ(decoded->answers.size(), 1u);
    EXPECT_EQ(decoded->answers[0], rr) << ToString(GetParam());
  }
}

TEST_P(RdataRoundTripTest, SurvivesPackedMultiRecordMessage) {
  for (int round = 0; round < 10; ++round) {
    Message msg;
    msg.header.qr = true;
    Name shared_suffix = RandomName();
    msg.questions.push_back(
        Question{shared_suffix, GetParam(), RrClass::kIn});
    // Several records under a shared suffix exercise compression pointers.
    for (int i = 0; i < 5; ++i) {
      ResourceRecord rr;
      rr.name = shared_suffix.Child(RandomLabel(8));
      rr.type = GetParam();
      rr.ttl = static_cast<std::uint32_t>(rng_());
      rr.rdata = RandomRdata(GetParam());
      msg.answers.push_back(std::move(rr));
    }
    auto decoded = Message::Decode(msg.Encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->answers, msg.answers) << ToString(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RdataRoundTripTest,
    ::testing::Values(RrType::kA, RrType::kAaaa, RrType::kNs, RrType::kCname,
                      RrType::kPtr, RrType::kMx, RrType::kTxt, RrType::kSoa,
                      RrType::kSrv, RrType::kDs, RrType::kDnskey,
                      RrType::kRrsig, RrType::kNsec, RrType::kNsec3,
                      RrType::kNsec3Param),
    [](const ::testing::TestParamInfo<RrType>& info) {
      return std::string(ToString(info.param));
    });

}  // namespace
}  // namespace clouddns::dns
