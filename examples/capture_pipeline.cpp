// The offline ENTRADA workflow, end to end:
//   capture -> columnar file -> (prefix-preserving anonymization) ->
//   reload -> enrichment + aggregation.
// Capture and analysis are separate systems with a storage format and a
// privacy boundary between them. The analyses of the anonymized trace,
// under the routing table mapped through the same anonymizer, must equal
// those of the original trace under the unmapped table, or it exits 1.
#include <cstdio>
#include <map>
#include <utility>

#include "analysis/report.h"
#include "analysis/rssac002.h"
#include "capture/anonymize.h"
#include "capture/columnar.h"
#include "capture/sharded.h"
#include "cloud/scenario.h"
#include "entrada/plan.h"

using namespace clouddns;

namespace {

/// The providers' routing table, announced through `anonymizer` if given.
net::AsDatabase ProviderRoutes(const capture::Anonymizer* anonymizer) {
  net::AsDatabase asdb;
  for (cloud::Provider provider : cloud::MeasuredProviders()) {
    const auto& network = cloud::NetworkOf(provider);
    for (net::Asn asn : network.ases) {
      asdb.AddAs(asn, std::string(cloud::ToString(provider)));
    }
    auto announce = [&](const net::Prefix& block) {
      const net::IpAddress address =
          anonymizer ? anonymizer->Anonymize(block.address()) : block.address();
      asdb.Announce(net::Prefix(address, block.length()), network.ases.front());
    };
    for (const auto& block : network.v4_blocks) announce(block);
    for (const auto& block : network.v6_blocks) announce(block);
    for (const auto& block : network.public_dns_blocks) announce(block);
  }
  return asdb;
}

/// What this example reports about a trace.
struct Analysis {
  std::map<std::string, std::uint64_t> by_as, qtypes;
  std::vector<std::string> rssac002_days;
  friend bool operator==(const Analysis&, const Analysis&) = default;
};

/// One plan pass computes both aggregations; then the RSSAC002 days.
Analysis Analyze(const capture::ShardedCapture& records,
                 const net::AsDatabase& asdb) {
  entrada::AnalysisPlan plan;
  plan.SetAsDatabase(asdb);
  const auto by_as =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::SrcAs());
  const auto qtypes =
      plan.GroupBy(entrada::FilterSpec::All(), entrada::KeySpec::Qtype());
  plan.Execute(records);
  Analysis analysis{plan.GroupResult(by_as).counts,
                    plan.GroupResult(qtypes).counts, {}};
  for (const auto& day : analysis::Rssac002Report(records.shard(0))) {
    analysis.rssac002_days.push_back(
        analysis::RenderRssac002Yaml(day, "nl-anonymized"));
  }
  return analysis;
}

/// Reports a failed file operation; true when `status` failed.
bool Failed(const base::io::IoStatus& status) {
  if (status.ok()) return false;
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return true;
}

}  // namespace

int main() {
  // --- capture side -----------------------------------------------------
  cloud::ScenarioConfig config;  // .nl w2020, the defaults
  config.client_queries = 60'000;
  std::printf("capturing a scaled .nl week...\n");
  cloud::ScenarioResult week = cloud::RunScenario(config);

  // Exports need the single time-ordered stream, so sort explicitly,
  // once (analytics would scan the shards in place).
  const capture::CaptureBuffer flat = week.records.TimeOrderedCopy();
  const std::string raw_path = "/tmp/clouddns_example_raw.cdns";
  if (Failed(capture::WriteCaptureFileStatus(raw_path, flat))) return 1;
  std::printf("wrote %zu records to %s\n", flat.size(), raw_path.c_str());

  // Privacy boundary: anonymize before the trace leaves the operator.
  capture::Anonymizer anonymizer(/*key=*/0x5eed);
  const std::string anon_path = "/tmp/clouddns_example_anon.cdns";
  if (Failed(capture::WriteCaptureFileStatus(
          anon_path, anonymizer.AnonymizeCapture(flat)))) {
    return 1;
  }
  std::printf("anonymized copy at %s\n", anon_path.c_str());

  // --- analysis side: only the anonymized file and mapped routes cross --
  capture::CaptureBuffer reloaded;
  if (Failed(capture::ReadCaptureFileStatus(anon_path, reloaded))) return 1;
  std::remove(raw_path.c_str());
  std::remove(anon_path.c_str());

  // Map the AS database through the same anonymizer: announcements keyed
  // by anonymized prefixes attribute anonymized sources correctly because
  // the mapping is prefix-preserving.
  const auto total = static_cast<double>(reloaded.size());
  const Analysis anonymized =
      Analyze(capture::ShardedCapture(std::move(reloaded)),
              ProviderRoutes(&anonymizer));
  std::uint64_t cloud_queries = 0;
  for (const auto& [key, count] : anonymized.by_as) {
    if (key != "AS?") cloud_queries += count;
  }
  std::printf("\ncloud share measured on ANONYMIZED data: %s (5 CPs)\n",
              analysis::Percent(static_cast<double>(cloud_queries) / total)
                  .c_str());

  // Aggregations that never needed addresses at all work unchanged.
  analysis::TextTable table({"qtype", "share"});
  for (const auto& [qtype, count] : anonymized.qtypes) {
    const double share = static_cast<double>(count) / total;
    if (share > 0.02) table.AddRow({qtype, analysis::Percent(share)});
  }
  std::printf("\n%s", table.Render().c_str());

  std::printf("\nRSSAC002-style daily summary (first day):\n%s",
              anonymized.rssac002_days.empty()
                  ? ""
                  : anonymized.rssac002_days.front().c_str());

  // The privacy boundary costs no analysis: the original trace under the
  // unmapped routing table reads the same.
  const Analysis original =
      Analyze(capture::ShardedCapture(capture::CaptureBuffer(flat)),
              ProviderRoutes(nullptr));
  if (!(original == anonymized)) {
    std::fprintf(stderr, "FAIL: the anonymized trace's analysis differs\n");
    return 1;
  }
  return 0;
}
