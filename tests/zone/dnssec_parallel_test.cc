// Determinism contract of the parallel zone signer (DESIGN.md §14): the
// fan-out only computes signatures; the RRSIG records are appended serially
// in target order, so the signed zone's wire image must be byte-for-byte
// identical at every worker count — fingerprinted here with SHA-256 over
// the master-file rendering. The same contract is pinned end-to-end on
// scenario reports, including under a fault preset that skews the capture.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "../testutil.h"
#include "analysis/experiments.h"
#include "capture/columnar.h"
#include "cloud/scenario.h"
#include "zone/dnssec.h"
#include "zone/master_file.h"
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

/// A ccTLD-shaped zone large enough that SignZone's fan-out runs many
/// signing tasks per worker: apex NS set plus 400 delegations, half with
/// DS records.
Zone BuildSampleZone() {
  ZoneBuildConfig config;
  config.apex = *dns::Name::Parse("nl");
  config.nameservers = {
      {*dns::Name::Parse("ns1.dns.nl"),
       {*net::IpAddress::Parse("194.0.28.53")}},
      {*dns::Name::Parse("ns2.dns.nl"),
       {*net::IpAddress::Parse("194.0.29.53")}}};
  Zone zone = MakeZoneSkeleton(config);
  PopulateDelegations(zone, 400, "dom", 0.5,
                      *net::Ipv4Address::Parse("100.70.0.0"));
  return zone;
}

TEST_F(SignThreadsTest, SignedZoneImageIdenticalAtEveryThreadCount) {
  std::string reference;
  for (const char* threads : {"1", "2", "4", "8"}) {
    setenv("CLOUDDNS_THREADS", threads, 1);
    Zone zone = BuildSampleZone();
    SignZone(zone);
    const std::string digest = testutil::Sha256Hex(ToMasterFile(zone));
    if (reference.empty()) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference)
          << "signed zone image diverges at " << threads << " threads";
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

/// One digest covering everything a run publishes: the flattened capture's
/// columnar encoding (every record field, in merge order) plus the
/// Table 3 / Fig. 1 report numbers, HyperLogLog estimates included.
std::string ReportDigest(const cloud::ScenarioResult& result) {
  const auto wire = capture::EncodeColumnar(result.records.FlattenCopy());
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
    } else {
      EXPECT_EQ(digest, reference)
          << "faulted scenario report diverges at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace clouddns::zone
