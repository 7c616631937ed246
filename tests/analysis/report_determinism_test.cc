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

#include "analysis/rdns.h"
#include "capture/record.h"
#include "entrada/plan.h"
#include "net/asdb.h"
#include "sim/random.h"
#include "zone/reverse.h"

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

/// Runs the full fused plan plus the rDNS grouping and renders everything
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
  plan.Execute(records, threads);

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

  // Dual-stack matching through the ordered GroupByPtrName boundary.
  std::vector<std::pair<net::IpAddress, dns::Name>> ptrs;
  std::vector<net::IpAddress> addresses;
  for (int i = 0; i < 16; ++i) {
    dns::Name host = *dns::Name::Parse("edge-" + std::to_string(i % 5) +
                                       ".ams.example.net");
    net::IpAddress v4 = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i));
    net::IpAddress v6 = net::Ipv6Address::FromGroups(
        {0x2001, 0xdb8, 0, 0, 0, 0, 0, static_cast<std::uint16_t>(i)});
    ptrs.emplace_back(v4, host);
    ptrs.emplace_back(v6, host);
    addresses.push_back(v4);
    addresses.push_back(v6);
  }
  analysis::RdnsDatabase rdns(ptrs);
  for (const auto& [name, members] : rdns.GroupByPtrName(addresses)) {
    out << "ptr-group " << name << " " << members.size() << "\n";
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
