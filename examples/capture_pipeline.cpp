// The offline ENTRADA workflow, end to end:
//   capture -> columnar file -> (prefix-preserving anonymization) ->
//   reload -> enrichment + aggregation.
// This is the shape of a real deployment, where capture and analysis are
// separate systems with a storage format and a privacy boundary between
// them. Shows that the analyses still work on anonymized data when the
// routing table is mapped through the same anonymizer.
#include <cstdio>
#include <utility>

#include "analysis/report.h"
#include "analysis/rssac002.h"
#include "capture/anonymize.h"
#include "capture/columnar.h"
#include "capture/sharded.h"
#include "cloud/scenario.h"
#include "entrada/plan.h"

using namespace clouddns;

int main() {
  // --- capture side -----------------------------------------------------
  cloud::ScenarioConfig config;
  config.vantage = cloud::Vantage::kNl;
  config.year = 2020;
  config.client_queries = 60'000;
  std::printf("capturing a scaled .nl week...\n");
  cloud::ScenarioResult week = cloud::RunScenario(config);

  // Exports need the single time-ordered stream, so sort explicitly,
  // once (analytics would scan the shards in place).
  const capture::CaptureBuffer flat = week.records.TimeOrderedCopy();
  const std::string raw_path = "/tmp/clouddns_example_raw.cdns";
  if (auto status = capture::WriteCaptureFileStatus(raw_path, flat);
      !status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s\n", week.records.size(),
              raw_path.c_str());

  // Privacy boundary: anonymize before the trace leaves the operator.
  capture::Anonymizer anonymizer(/*key=*/0x5eed);
  const std::string anon_path = "/tmp/clouddns_example_anon.cdns";
  if (auto status = capture::WriteCaptureFileStatus(
          anon_path, anonymizer.AnonymizeCapture(flat));
      !status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("anonymized copy at %s\n", anon_path.c_str());

  // --- analysis side (only the anonymized file + the mapped routing
  // table cross the boundary) --------------------------------------------
  capture::CaptureBuffer reloaded_flat;
  if (auto status = capture::ReadCaptureFileStatus(anon_path, reloaded_flat);
      !status.ok()) {
    std::fprintf(stderr, "reload failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const capture::ShardedCapture reloaded(std::move(reloaded_flat));
  const capture::CaptureBuffer& records = reloaded.shard(0);

  // Map the AS database through the same anonymizer: announcements keyed
  // by anonymized prefixes attribute anonymized sources correctly because
  // the mapping is prefix-preserving.
  net::AsDatabase anonymized_asdb;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    const auto& network = cloud::NetworkOf(provider);
    for (net::Asn asn : network.ases) {
      anonymized_asdb.AddAs(asn, std::string(cloud::ToString(provider)));
    }
    auto announce = [&](const net::Prefix& block) {
      anonymized_asdb.Announce(
          net::Prefix(anonymizer.Anonymize(block.address()), block.length()),
          network.ases.front());
    };
    for (const auto& block : network.v4_blocks) announce(block);
    for (const auto& block : network.v6_blocks) announce(block);
    for (const auto& block : network.public_dns_blocks) announce(block);
  }

  // One pass computes both aggregations below.
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(anonymized_asdb);
  const auto as_handle =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::SrcAs());
  const auto qtype_handle =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::Qtype());
  plan.Execute(reloaded);

  const entrada::Aggregation& by_as = plan.GroupResult(as_handle);
  std::uint64_t cloud_queries = 0;
  for (const auto& [key, count] : by_as.counts) {
    if (key != "AS?") cloud_queries += count;
  }
  std::printf(
      "\ncloud share measured on ANONYMIZED data: %s (5 CPs)\n",
      analysis::Percent(static_cast<double>(cloud_queries) /
                        static_cast<double>(records.size()))
          .c_str());

  // Aggregations that never needed addresses at all work unchanged.
  analysis::TextTable table({"qtype", "share"});
  const entrada::Aggregation& qtypes = plan.GroupResult(qtype_handle);
  for (const auto& [qtype, count] : qtypes.counts) {
    if (qtypes.Share(qtype) > 0.02) {
      table.AddRow({qtype, analysis::Percent(qtypes.Share(qtype))});
    }
  }
  std::printf("\n%s", table.Render().c_str());

  std::printf("\nRSSAC002-style daily summary (first day):\n");
  auto days = analysis::Rssac002Report(records);
  if (!days.empty()) {
    std::printf("%s", analysis::RenderRssac002Yaml(days.front(),
                                                   "nl-anonymized")
                          .c_str());
  }

  std::remove(raw_path.c_str());
  std::remove(anon_path.c_str());
  return 0;
}
