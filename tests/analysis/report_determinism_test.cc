// Regression test for the determinism contract at report boundaries
// (DESIGN.md §8): rendering the same capture through the analysis layer
// must produce byte-identical text regardless of worker-thread count and
// across repeated runs. This is the test that would have caught the
// unordered_map emission paths the lint rule now forbids.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiments.h"
#include "capture/record.h"
#include "capture/sharded.h"
#include "entrada/plan.h"
#include "net/asdb.h"
#include "sim/random.h"

namespace clouddns {
namespace {

/// A capture big enough that Execute() actually chunks across workers.
capture::CaptureBuffer SyntheticCapture() {
  sim::Rng rng(0x5eed0002);
  const dns::RrType qtypes[] = {dns::RrType::kA, dns::RrType::kAaaa,
                                dns::RrType::kNs, dns::RrType::kTxt,
                                dns::RrType::kDs};
  const dns::Rcode rcodes[] = {dns::Rcode::kNoError, dns::Rcode::kNxDomain,
                               dns::Rcode::kRefused};
  capture::CaptureBuffer records;
  records.reserve(6000);
  for (std::size_t i = 0; i < 6000; ++i) {
    capture::CaptureRecord r;
    // Spread over ~60 days so GroupByMonth sees more than one bucket.
    r.time_us = static_cast<sim::TimeUs>(rng.NextBelow(60)) * 86'400'000'000ull +
                static_cast<sim::TimeUs>(rng.NextBelow(86'400'000'000ull));
    r.server_id = static_cast<std::uint32_t>(rng.NextBelow(4));
    if (rng.Bernoulli(0.7)) {
      r.src = net::Ipv4Address(
          10, static_cast<std::uint8_t>(rng.NextBelow(8)),
          static_cast<std::uint8_t>(rng.NextBelow(256)),
          static_cast<std::uint8_t>(rng.NextBelow(256)));
    } else {
      r.src = net::Ipv6Address::FromGroups(
          {0x2001, 0xdb8, 0, 0, 0, 0,
           static_cast<std::uint16_t>(rng.NextBelow(8)),
           static_cast<std::uint16_t>(rng.NextBelow(4096))});
    }
    r.src_port = static_cast<std::uint16_t>(1024 + rng.NextBelow(60000));
    r.transport =
        rng.Bernoulli(0.1) ? dns::Transport::kTcp : dns::Transport::kUdp;
    r.qname = *dns::Name::Parse("q" + std::to_string(rng.NextBelow(500)) +
                                ".example.nl");
    r.qtype = qtypes[rng.NextBelow(std::size(qtypes))];
    r.rcode = rcodes[rng.NextBelow(std::size(rcodes))];
    r.has_edns = rng.Bernoulli(0.8);
    r.edns_udp_size = r.has_edns ? 1232 : 0;
    r.query_size = static_cast<std::uint16_t>(40 + rng.NextBelow(80));
    r.response_size = static_cast<std::uint16_t>(60 + rng.NextBelow(400));
    records.push_back(std::move(r));
  }
  return records;
}

/// Runs the full fused plan plus the Fig. 5 site rows and renders everything
/// into one report string — every emission boundary the repo has.
std::string RenderReport(const capture::CaptureBuffer& records,
                         std::size_t threads) {
  // One AS per v4 /16 and per v6 /112 the capture draws from, so the
  // source-AS group has a key per AS plus "AS?" for the unrouted rest.
  net::AsDatabase asdb;
  for (std::uint16_t i = 0; i < 8; ++i) {
    const net::Asn v4_as = 64500u + i;
    const net::Asn v6_as = 64600u + i;
    asdb.AddAs(v4_as, "V4-" + std::to_string(i));
    asdb.AddAs(v6_as, "V6-" + std::to_string(i));
    asdb.Announce(net::Prefix(net::Ipv4Address(10, static_cast<std::uint8_t>(i),
                                               0, 0),
                              16),
                  v4_as);
    if (i % 2 == 0) {
      asdb.Announce(net::Prefix(net::Ipv6Address::FromGroups(
                                    {0x2001, 0xdb8, 0, 0, 0, 0, i, 0}),
                                112),
                    v6_as);
    }
  }
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(asdb);
  auto by_qtype = plan.GroupBy(entrada::FilterSpec::All(),
                               entrada::KeySpec::Qtype());
  auto by_as = plan.GroupBy(entrada::FilterSpec::Valid(),
                             entrada::KeySpec::SrcAs());
  auto by_month = plan.GroupByMonth(entrada::FilterSpec::All(),
                                    entrada::KeySpec::RcodeKey());
  auto v6_sources = plan.Distinct(entrada::FilterSpec::V6(),
                                  entrada::KeySpec::SrcAddress());
  auto udp_total = plan.Count(entrada::FilterSpec::Udp());
  plan.Execute(capture::ShardedCapture(records), threads);

  std::ostringstream out;
  out << "udp_total " << plan.CountResult(udp_total) << "\n";
  out << "v6_sources " << plan.DistinctResult(v6_sources) << "\n";
  for (const auto& [key, n] : plan.GroupResult(by_qtype).counts) {
    out << "qtype " << key << " " << n << "\n";
  }
  for (const auto& [key, n] : plan.GroupResult(by_as).counts) {
    out << "as " << key << " " << n << "\n";
  }
  for (const auto& [month, agg] : plan.MonthResult(by_month)) {
    for (const auto& [key, n] : agg.counts) {
      out << "month " << month << " " << key << " " << n << "\n";
    }
  }

  // Fig. 5's per-site rows through the reverse DNS. The capture is
  // Facebook's here, split into `threads` shards. A source's PTR name
  // keys on its low address bits, so v4 and v6 sources share names
  // (dual-stack hosts), and every seventh bucket has no PTR.
  cloud::ScenarioResult scenario;
  scenario.asdb.AddAs(32934, "FACEBOOK");
  scenario.asdb.Announce(net::Prefix(net::Ipv4Address(10, 0, 0, 0), 8), 32934);
  scenario.asdb.Announce(
      net::Prefix(net::Ipv6Address::FromGroups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 0}),
                  32),
      32934);
  const char* const sites[] = {"ams", "fra", "sjc"};
  std::vector<capture::CaptureBuffer> shards(threads);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const capture::CaptureRecord& r = records[i];
    shards[i % threads].push_back(r);
    const unsigned low = r.src.is_v4() ? r.src.v4().ToBytes()[3]
                                       : r.src.v6().group(7);
    if (low % 7 == 0) continue;
    scenario.ptr_records.emplace_back(
        r.src, *dns::Name::Parse("edge-" + std::to_string(low % 64) + "." +
                                 sites[low % 3] + ".tfbnw.example"));
  }
  for (capture::CaptureBuffer& shard : shards) {
    capture::SortByTimeStable(shard);
  }
  scenario.records = capture::ShardedCapture::FromShards(std::move(shards));
  for (const auto& site : analysis::ComputeFacebookSites(scenario, 0)) {
    out << "fb-site " << site.site << " " << site.queries << " "
        << site.v6_share << " " << site.median_rtt_v4_ms.value_or(-1) << " "
        << site.median_rtt_v6_ms.value_or(-1) << " dual "
        << site.dual_stack_hosts << "\n";
  }
  return out.str();
}

TEST(ReportDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  capture::CaptureBuffer records = SyntheticCapture();
  std::string baseline = RenderReport(records, 1);
  EXPECT_FALSE(baseline.empty());
  for (std::size_t threads : {2u, 3u, 7u}) {
    EXPECT_EQ(baseline, RenderReport(records, threads))
        << "report diverges at threads=" << threads;
  }
}

TEST(ReportDeterminismTest, ByteIdenticalAcrossRepeatedRuns) {
  capture::CaptureBuffer records = SyntheticCapture();
  EXPECT_EQ(RenderReport(records, 4), RenderReport(records, 4));
}

}  // namespace
}  // namespace clouddns
