// Signed-zone determinism (DESIGN.md §7): the signed image of a
// ccTLD-shaped zone, with every RRSIG its server writes, is pinned by a
// SHA-256 digest at every worker count of the delegation fill, a .nl-scale
// image is byte-identical at every one, and scenario reports must be
// byte-for-byte identical at every worker count, including under a fault
// preset that skews the capture; each 1-thread report digest is also
// checked against a fixed reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "../testutil.h"
#include "analysis/experiments.h"
#include "capture/columnar.h"
#include "cloud/scenario.h"
#include "dns/wire.h"
#include "zone/dnssec.h"
#include "zone/zone_builder.h"

namespace clouddns::zone {
namespace {

/// Pins CLOUDDNS_THREADS for one test body and restores the previous
/// value, so a failing assertion cannot leak the override into later
/// tests.
class SignThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* prev = std::getenv("CLOUDDNS_THREADS");
    had_env_ = prev != nullptr;
    if (had_env_) saved_ = prev;
  }
  void TearDown() override {
    if (had_env_) {
      setenv("CLOUDDNS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("CLOUDDNS_THREADS");
    }
  }

 private:
  bool had_env_ = false;
  std::string saved_;
};

/// A ccTLD-shaped zone: apex NS set plus `delegations` (400 for the
/// pinned sample), half with DS records, each bringing about four owners,
/// filled on `threads` workers.
Zone BuildSampleZone(std::size_t delegations = 400, std::size_t threads = 0) {
  ZoneBuildConfig config;
  config.apex = *dns::Name::Parse("nl");
  config.nameservers = {
      {*dns::Name::Parse("ns1.dns.nl"),
       {*net::IpAddress::Parse("194.0.28.53")}},
      {*dns::Name::Parse("ns2.dns.nl"),
       {*net::IpAddress::Parse("194.0.29.53")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, delegations, "dom", 0.5,
                      *net::Ipv4Address::Parse("100.70.0.0"),
                      /*ttl=*/86400, threads);
  return zone;
}

/// Every record of a signed zone and the RRSIG over each RRset, DS and
/// DNSKEY included, wire encoded in canonical owner and type order (an
/// owner's RRSIGs, in the type order of the RRsets they cover, sort
/// between its types below RRSIG and those above), followed by the
/// canonical owner list with its empty non-terminals. Unlike the
/// master-file rendering this covers every signature byte; the digest it
/// is checked against was computed once and is never edited.
std::string SignedImageBlob(const Zone& zone) {
  std::string blob;
  const auto append = [&blob](const dns::ResourceRecord& rr) {
    dns::WireBuffer wire;
    dns::WireWriter writer(wire);
    rr.Encode(writer);
    blob.append(wire.begin(), wire.end());
  };
  for (const Zone::Owner& owner : zone.Owners()) {
    const RecordSpan records = owner.records;
    std::size_t i = 0;
    for (; i < records.size() && records[i].type < dns::RrType::kRrsig; ++i) {
      append(records[i]);
    }
    for (std::size_t j = 0; j < records.size(); ++j) {
      if (j == 0 || records[j - 1].type != records[j].type) {
        append(testutil::ReferenceRrsig(zone.apex(), records[j]));
      }
    }
    for (; i < records.size(); ++i) append(records[i]);
  }
  for (const Zone::Owner& owner : zone.Owners()) {
    blob += owner.name.ToString() + "\n";
  }
  return blob;
}

constexpr const char* kSampleDigest =
    "0d18ec735c7c225dc41cac053b37f925e6def13aafa8a0e91e47e0a79bf6c8aa";

TEST(SignedZoneImageTest, EveryRecordMatchesPinnedDigest) {
  Zone zone = BuildSampleZone();
  SignZone(zone);
  EXPECT_EQ(testutil::Sha256Hex(SignedImageBlob(zone)), kSampleDigest);
}

TEST(SignedZoneImageTest, DelegationFillIsIdenticalAtEveryWorkerCount) {
  // The pool fills the delegations in fixed-size chunks of the canonical
  // walk; neither the pinned sample nor a .nl-scale image (11,800
  // delegations, as the cold datasets build) may depend on the workers.
  // Every RRSIG is a function of the records, so equal records and
  // owners make equal signed images.
  Zone nl_reference = BuildSampleZone(11800, 1);
  SignZone(nl_reference);
  ASSERT_GT(nl_reference.record_count(), 100'000u);
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    Zone sample = BuildSampleZone(400, threads);
    SignZone(sample);
    EXPECT_EQ(testutil::Sha256Hex(SignedImageBlob(sample)), kSampleDigest)
        << threads << " workers";
    Zone nl = BuildSampleZone(11800, threads);
    SignZone(nl);
    const auto want = nl_reference.Owners();
    const auto got = nl.Owners();
    ASSERT_EQ(got.size(), want.size()) << threads << " workers";
    for (std::size_t o = 0; o < want.size(); ++o) {
      ASSERT_EQ(got[o].name.ToString(), want[o].name.ToString())
          << threads << " workers";
      ASSERT_TRUE(std::ranges::equal(got[o].records, want[o].records))
          << want[o].name.ToString() << " at " << threads << " workers";
    }
  }
}

cloud::ScenarioConfig SmallScenario(std::size_t threads,
                                    cloud::FaultPreset preset) {
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNl;
  config.year = 2020;
  config.client_queries = 20'000;
  config.zone_scale = 0.001;
  config.threads = threads;
  config.fault_preset = preset;
  return config;
}

/// One digest covering everything a run publishes: the time-ordered
/// capture's columnar encoding (every record field) plus the
/// Table 3 / Fig. 1 report numbers, HyperLogLog estimates included.
std::string ReportDigest(const cloud::ScenarioResult& result) {
  const auto wire =
      capture::EncodeColumnar(result.records.TimeOrderedCopy());
  std::string blob(wire.begin(), wire.end());
  const auto stats = analysis::ComputeDatasetStats(result);
  blob += std::to_string(stats.queries_total) + "/" +
          std::to_string(stats.queries_valid) + "/" +
          std::to_string(stats.resolvers_exact) + "/" +
          std::to_string(stats.resolvers_hll) + "/" +
          std::to_string(stats.ases_exact) + "/" +
          std::to_string(stats.ases_hll);
  for (const auto& share : analysis::ComputeCloudShares(result)) {
    blob += "/" + std::to_string(share.queries);
  }
  return testutil::Sha256Hex(blob);
}

TEST_F(SignThreadsTest, ScenarioReportsIdenticalAtEveryThreadCount) {
  std::string reference;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    setenv("CLOUDDNS_THREADS", std::to_string(threads).c_str(), 1);
    const auto result = cloud::RunScenario(
        SmallScenario(threads, cloud::FaultPreset::kNone));
    const std::string digest = ReportDigest(result);
    if (reference.empty()) {
      reference = digest;
      EXPECT_EQ(digest,
                "3c770dd82ab533f1a2d62951f36a63adc018a6d062597ab8e7b0f058efa8f1b2");
    } else {
      EXPECT_EQ(digest, reference)
          << "scenario report diverges at " << threads << " threads";
    }
  }
}

TEST_F(SignThreadsTest, FaultedScenarioReportsIdenticalAtEveryThreadCount) {
  // Fault injection exercises the retry/timeout machinery and skews
  // per-shard record counts; the worker count still must not show through.
  std::string reference;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    setenv("CLOUDDNS_THREADS", std::to_string(threads).c_str(), 1);
    const auto result = cloud::RunScenario(
        SmallScenario(threads, cloud::FaultPreset::kLossyPath));
    const std::string digest = ReportDigest(result);
    if (reference.empty()) {
      reference = digest;
      EXPECT_EQ(digest,
                "802951088e4ac151b6bdb9250784c49e4190163514158a8278be2e1829f546ae");
    } else {
      EXPECT_EQ(digest, reference)
          << "faulted scenario report diverges at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace clouddns::zone
