// cdnstool — the command-line front end to the clouddns library.
//
//   cdnstool simulate  --vantage nl --year 2020 --queries 100000
//                      --out week.cdns [--anonymize-key K]
//   cdnstool inspect   week.cdns [--by qtype|rcode|transport|family] [--top N]
//   cdnstool anonymize in.cdns out.cdns --key K
//   cdnstool dig       <qname> [qtype] [--qmin] [--validate] [--edns N]
//   cdnstool zone-check file.zone [--origin name]
//   cdnstool zone-sample
//   cdnstool verify    file...   (storage-frame integrity check)
//
// Every subcommand exercises the public library API only.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/report.h"
#include "analysis/rssac002.h"
#include "base/env.h"
#include "base/io.h"
#include "capture/anonymize.h"
#include "capture/columnar.h"
#include "capture/pcap.h"
#include "capture/sharded.h"
#include "cloud/scenario.h"
#include "entrada/plan.h"
#include "entrada/topk.h"
#include "resolver/resolver.h"
#include "server/auth_server.h"
#include "server/leaf_auth.h"
#include "zone/dnssec.h"
#include "zone/master_file.h"
#include "zone/zone_builder.h"

using namespace clouddns;

namespace {

/// Options that take a value; every other `--name` is a flag.
const std::set<std::string> kValuedOptions = {
    "anonymize-key", "by",   "edns", "key",     "origin", "out",
    "queries",       "seed", "top",  "vantage", "year"};

struct Args {
  std::vector<std::string> positional;
  std::unordered_map<std::string, std::string> options;
  std::unordered_map<std::string, bool> flags;

  /// nullopt when a valued option has no value. The value is the next
  /// argument unless that is itself an option, so `--queries -1` reads -1.
  static std::optional<Args> Parse(int argc, char** argv, int first) {
    Args args;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        args.positional.push_back(std::move(arg));
        continue;
      }
      std::string key = arg.substr(2);
      if (kValuedOptions.count(key) == 0) {
        args.flags[key] = true;
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        args.options[key] = argv[++i];
      } else {
        return std::nullopt;
      }
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const {
    return flags.count(key) > 0 || options.count(key) > 0;
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cdnstool simulate   --vantage nl|nz|root --year 2018|2019|2020\n"
      "                      [--queries N] [--seed S] [--out file.cdns]\n"
      "                      [--anonymize-key K]\n"
      "  cdnstool inspect    file.cdns [--by qtype|rcode|transport|family]\n"
      "                      [--top N] [--rssac002]\n"
      "  cdnstool anonymize  in.cdns out.cdns --key K\n"
      "  cdnstool export-pcap in.cdns out.pcap [--raw]\n"
      "                      (--raw: plain libpcap for tcpdump/wireshark,\n"
      "                       no integrity frame)\n"
      "  cdnstool import-pcap in.pcap out.cdns\n"
      "  cdnstool report     file.cdns   (cloud-provider attribution)\n"
      "  cdnstool dig        qname [qtype] [--qmin] [--validate] [--edns N]\n"
      "  cdnstool zone-check file.zone [--origin name]\n"
      "  cdnstool zone-sample\n"
      "  cdnstool verify     file...     (storage-frame integrity check)\n");
  return 2;
}

/// `--name` as a positive integer of at most `max`, or `fallback` when
/// absent; nullopt when the value is malformed or out of range.
std::optional<std::uint64_t> PositiveOption(const Args& args,
                                            const std::string& name,
                                            std::uint64_t fallback,
                                            std::uint64_t max = UINT64_MAX) {
  auto it = args.options.find(name);
  if (it == args.options.end()) return fallback;
  auto value = base::ParsePositiveInteger(it->second);
  if (!value || *value > max) return std::nullopt;
  return value;
}

/// `--name` as an unsigned integer (0 included), or `fallback` when
/// absent; nullopt when the value is malformed.
std::optional<std::uint64_t> UnsignedOption(const Args& args,
                                            const std::string& name,
                                            std::uint64_t fallback) {
  auto it = args.options.find(name);
  if (it == args.options.end()) return fallback;
  return base::ParseUnsignedInteger(it->second);
}

std::optional<cloud::Vantage> VantageFrom(const std::string& text) {
  if (text == "nl") return cloud::Vantage::kNl;
  if (text == "nz") return cloud::Vantage::kNz;
  if (text == "root") return cloud::Vantage::kRoot;
  return std::nullopt;
}

/// The capture years the scenario profiles cover.
std::optional<int> YearFrom(const std::string& text) {
  if (text == "2018") return 2018;
  if (text == "2019") return 2019;
  if (text == "2020") return 2020;
  return std::nullopt;
}

/// Loads a columnar capture in time order, printing the typed storage
/// error on failure. A dataset-cache `.cdns` holds its shards back to
/// back, so the records are sorted here; files `simulate` writes are
/// already in time order and come back unchanged.
bool ReadCapture(const std::string& path, capture::CaptureBuffer& records) {
  if (auto status = capture::ReadCaptureFileStatus(path, records);
      !status.ok()) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  capture::SortByTimeStable(records);
  return true;
}

int CmdSimulate(const Args& args) {
  const auto vantage = VantageFrom(args.Get("vantage", "nl"));
  const auto year = YearFrom(args.Get("year", "2020"));
  const auto queries = PositiveOption(args, "queries", 100000);
  const auto seed = UnsignedOption(args, "seed", 20201027);
  const auto anonymize_key = UnsignedOption(args, "anonymize-key", 1);
  if (!vantage || !year || !queries || !seed || !anonymize_key) {
    return Usage();
  }
  cloud::ScenarioConfig config;
  config.vantage = *vantage;
  config.year = *year;
  config.client_queries = *queries;
  config.seed = *seed;

  std::fprintf(stderr, "simulating %s %d (%llu client queries)...\n",
               std::string(cloud::ToString(config.vantage)).c_str(),
               config.year,
               static_cast<unsigned long long>(config.client_queries));
  cloud::ScenarioResult result = cloud::RunScenario(config);
  std::fprintf(stderr, "captured %zu queries\n", result.records.size());

  // The result keeps records sharded; the export below writes the single
  // time-ordered stream.
  capture::CaptureBuffer records = result.records.TimeOrderedCopy();
  if (args.Has("anonymize-key")) {
    capture::Anonymizer anonymizer(*anonymize_key);
    records = anonymizer.AnonymizeCapture(records);
    std::fprintf(stderr, "source addresses anonymized\n");
  }

  std::string out = args.Get("out", "capture.cdns");
  if (auto status = capture::WriteCaptureFileStatus(out, records);
      !status.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", out.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", out.c_str());
  return 0;
}

int CmdInspect(const Args& args) {
  const auto top_n = PositiveOption(args, "top", 5);
  if (args.positional.empty() || !top_n) return Usage();
  capture::CaptureBuffer flat;
  if (!ReadCapture(args.positional[0], flat)) return 1;
  const capture::ShardedCapture sharded(std::move(flat));
  const capture::CaptureBuffer& records = sharded.shard(0);
  std::printf("%zu records\n", records.size());
  if (records.empty()) return 0;
  std::printf("window: %s .. %s\n",
              sim::DateString(records.front().time_us).c_str(),
              sim::DateString(records.back().time_us).c_str());

  std::string by = args.Get("by", "qtype");
  entrada::KeySpec key = entrada::KeySpec::Qtype();
  if (by == "rcode") {
    key = entrada::KeySpec::RcodeKey();
  } else if (by == "transport") {
    key = entrada::KeySpec::Transport();
  } else if (by == "family") {
    key = entrada::KeySpec::Family();
  }
  entrada::AnalysisPlan plan;
  const auto grouped = plan.GroupBy(entrada::FilterSpec::All(), key);
  const auto sources = plan.Distinct(entrada::FilterSpec::All(),
                                     entrada::KeySpec::SrcAddress());
  const auto sources_hll = plan.Sketch(entrada::FilterSpec::All(),
                                       entrada::KeySpec::SrcAddress());
  const auto junk = plan.Count(entrada::FilterSpec::Junk());
  plan.Execute(sharded);

  const entrada::Aggregation& agg = plan.GroupResult(grouped);
  analysis::TextTable table({by, "queries", "share"});
  for (const auto& [bucket, count] : agg.counts) {
    table.AddRow({bucket, analysis::Count(count),
                  analysis::Percent(agg.Share(bucket))});
  }
  std::printf("%s", table.Render().c_str());

  entrada::SpaceSaving topk(1024);
  for (const auto& record : records) topk.Add(record.src.ToString());
  std::printf("\ntop %zu sources:\n", static_cast<std::size_t>(*top_n));
  for (const auto& entry : topk.Top(*top_n)) {
    std::printf("  %-40s %s\n", entry.key.c_str(),
                analysis::Count(entry.count).c_str());
  }
  std::printf("\ndistinct sources: %llu (exact), %.0f (HLL)\n",
              static_cast<unsigned long long>(plan.DistinctResult(sources)),
              plan.SketchResult(sources_hll).Estimate());
  if (args.Has("rssac002")) {
    std::printf("\nRSSAC002-style daily metrics:\n");
    for (const auto& day : analysis::Rssac002Report(records)) {
      std::printf("%s", analysis::RenderRssac002Yaml(day, "capture").c_str());
    }
  }
  std::printf("junk ratio: %s\n",
              analysis::Percent(static_cast<double>(plan.CountResult(junk)) /
                                static_cast<double>(records.size()))
                  .c_str());
  return 0;
}

int CmdAnonymize(const Args& args) {
  const auto key = UnsignedOption(args, "key", 1);
  if (args.positional.size() != 2 || !args.Has("key") || !key) return Usage();
  capture::CaptureBuffer records;
  if (!ReadCapture(args.positional[0], records)) return 1;
  capture::Anonymizer anonymizer(*key);
  if (auto status = capture::WriteCaptureFileStatus(
          args.positional[1], anonymizer.AnonymizeCapture(records));
      !status.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n",
                 args.positional[1].c_str(), status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "anonymized %zu records -> %s\n", records.size(),
               args.positional[1].c_str());
  return 0;
}

int CmdReport(const Args& args) {
  if (args.positional.empty()) return Usage();
  capture::CaptureBuffer records;
  if (!ReadCapture(args.positional[0], records)) return 1;
  // Attribution uses the paper's Table 1 provider networks; everything
  // else counts as "other ASes".
  cloud::ScenarioResult result;
  result.records = capture::ShardedCapture(std::move(records));
  cloud::RegisterProviderAses(result.asdb);
  const std::vector<analysis::ProviderShare> shares =
      analysis::ComputeCloudShares(result);
  const analysis::ProviderShare& combined = shares.back();  // all 5 CPs

  analysis::TextTable table({"provider", "queries", "share"});
  for (std::size_t i = 0; i + 1 < shares.size(); ++i) {
    table.AddRow({std::string(cloud::ToString(shares[i].provider)),
                  analysis::Count(shares[i].queries),
                  analysis::Percent(shares[i].share)});
  }
  const std::size_t total = result.records.size();
  const std::uint64_t other = total - combined.queries;
  const double other_share = total == 0 ? 0.0
                                        : static_cast<double>(other) /
                                              static_cast<double>(total);
  table.AddRow({std::string(cloud::ToString(cloud::Provider::kOther)),
                analysis::Count(other), analysis::Percent(other_share)});
  std::printf("%s", table.Render().c_str());
  std::printf("\n5 cloud providers combined: %s of %zu queries\n",
              analysis::Percent(combined.share).c_str(), total);
  return 0;
}

int CmdExportPcap(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  capture::CaptureBuffer records;
  if (!ReadCapture(args.positional[0], records)) return 1;
  // --raw writes a plain libpcap file tcpdump/wireshark open directly;
  // the default wraps the pcap bytes in the checksummed integrity frame.
  const bool framed = !args.Has("raw");
  if (auto status =
          capture::WritePcapFileStatus(args.positional[1], records, framed);
      !status.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n",
                 args.positional[1].c_str(), status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "exported %zu query packets -> %s%s (response metadata is not\n"
               "representable in pcap and was dropped)\n",
               records.size(), args.positional[1].c_str(),
               framed ? " [framed; use --raw for tcpdump interop]" : "");
  return 0;
}

int CmdImportPcap(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  capture::CaptureBuffer records;
  if (auto status = capture::ReadPcapFileStatus(args.positional[0], records);
      !status.ok()) {
    std::fprintf(stderr, "error: cannot parse %s: %s\n",
                 args.positional[0].c_str(), status.ToString().c_str());
    return 1;
  }
  if (auto status =
          capture::WriteCaptureFileStatus(args.positional[1], records);
      !status.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n",
                 args.positional[1].c_str(), status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "imported %zu DNS queries -> %s\n", records.size(),
               args.positional[1].c_str());
  return 0;
}

// Frame-level integrity check of any base::io artifact: reports the
// content tag, framing state, and payload size, or the exact corruption.
int CmdVerify(const Args& args) {
  if (args.positional.empty()) return Usage();
  int failures = 0;
  for (const std::string& path : args.positional) {
    std::vector<std::uint8_t> bytes;
    if (auto status = base::io::ReadFileBytes(path, bytes); !status.ok()) {
      std::printf("%s: UNREADABLE (%s)\n", path.c_str(),
                  status.ToString().c_str());
      ++failures;
      continue;
    }
    std::vector<std::uint8_t> payload;
    bool framed = false;
    std::uint32_t tag = 0;
    auto status =
        base::io::UnwrapFrame(bytes, base::io::kTagAny, payload, framed, &tag);
    if (!status.ok()) {
      std::printf("%s: CORRUPT (%s)\n", path.c_str(),
                  status.ToString().c_str());
      ++failures;
      continue;
    }
    if (!framed) {
      std::printf("%s: OK unframed (raw pcap or foreign file) %zu bytes "
                  "(no checksums)\n",
                  path.c_str(), bytes.size());
      continue;
    }
    const char tag_text[5] = {static_cast<char>(tag >> 24),
                              static_cast<char>(tag >> 16),
                              static_cast<char>(tag >> 8),
                              static_cast<char>(tag), '\0'};
    std::printf("%s: OK framed tag=%s payload=%zu bytes\n", path.c_str(),
                tag_text, payload.size());
  }
  return failures == 0 ? 0 : 1;
}

int CmdDig(const Args& args) {
  const auto edns = PositiveOption(args, "edns", 1232, 65535);
  if (args.positional.empty() || !edns) return Usage();
  auto qname = dns::Name::Parse(args.positional[0]);
  if (!qname) {
    std::fprintf(stderr, "error: bad name '%s'\n",
                 args.positional[0].c_str());
    return 1;
  }
  dns::RrType qtype = dns::RrType::kA;
  if (args.positional.size() > 1) {
    auto parsed = dns::RrTypeFromString(args.positional[1]);
    if (!parsed) {
      std::fprintf(stderr, "error: bad type '%s'\n",
                   args.positional[1].c_str());
      return 1;
    }
    qtype = *parsed;
  }

  // A self-contained mini Internet: root + .nl + leaf catch-all.
  sim::LatencyModel latency;
  auto auth_site = latency.AddSite({"AMS", 0, 0, 1.0, 0.0});
  auto client_site = latency.AddSite({"FRA", 8, 0, 1.0, 0.0});
  sim::Network network(latency);

  zone::ZoneBuildConfig root_config;
  root_config.apex = dns::Name{};
  root_config.nameservers = {{*dns::Name::Parse("b.root-servers.example"),
                              {*net::IpAddress::Parse("198.41.0.4")}}};
  auto root = zone::MakeZoneSkeleton(root_config);
  zone::AddDelegation(root, *dns::Name::Parse("nl"),
                      {{*dns::Name::Parse("ns1.dns.nl"),
                        {*net::IpAddress::Parse("194.0.28.1")}}},
                      true, 172800);
  zone::SignZone(root);
  auto root_zone = std::make_shared<const zone::Zone>(std::move(root));

  zone::ZoneBuildConfig nl_config;
  nl_config.apex = *dns::Name::Parse("nl");
  nl_config.nameservers = {{*dns::Name::Parse("ns1.dns.nl"),
                            {*net::IpAddress::Parse("194.0.28.1")}}};
  auto nl = zone::MakeZoneSkeleton(nl_config);
  zone::PopulateDelegations(nl, 1000, "dom", 0.55,
                            net::Ipv4Address(100, 70, 0, 0));
  zone::SignZone(nl);
  auto nl_zone = std::make_shared<const zone::Zone>(std::move(nl));

  server::AuthServerConfig root_ns_config;
  root_ns_config.server_id = 0;
  root_ns_config.name = "root";
  server::AuthServer root_server{root_ns_config};
  root_server.Serve(root_zone);
  network.RegisterServer(*net::IpAddress::Parse("198.41.0.4"), auth_site,
                         root_server);
  server::AuthServerConfig nl_ns_config;
  nl_ns_config.server_id = 1;
  nl_ns_config.name = "nl";
  server::AuthServer nl_server{nl_ns_config};
  nl_server.Serve(nl_zone);
  network.RegisterServer(*net::IpAddress::Parse("194.0.28.1"), auth_site,
                         nl_server);
  server::LeafAuthService leaf{server::LeafAuthConfig{}};
  network.SetDefaultRoute(auth_site, leaf);

  resolver::ResolverConfig config;
  resolver::EgressHost host;
  host.v4 = *net::IpAddress::Parse("10.1.0.1");
  host.site = client_site;
  config.hosts = {host};
  config.qname_minimization = args.Has("qmin");
  config.validate_dnssec = args.Has("validate");
  config.edns_udp_size = static_cast<std::uint16_t>(*edns);
  resolver::RecursiveResolver resolver(
      network, config, {*net::IpAddress::Parse("198.41.0.4")}, {});

  auto result = resolver.Resolve(*qname, qtype, 1);
  std::printf(";; %s after %d upstream queries%s\n",
              std::string(ToString(result.rcode)).c_str(),
              result.upstream_queries, result.from_cache ? " (cached)" : "");
  for (const auto& record : result.records) {
    std::printf("%s\n", record.ToString().c_str());
  }
  std::printf("\n;; upstream packets seen by the captured servers:\n");
  for (const auto* server : {&root_server, &nl_server}) {
    for (const auto& record : server->captured()) {
      std::printf(";;   @%-5s %s %s %s -> %s%s\n",
                  server->config().name.c_str(),
                  std::string(ToString(record.transport)).c_str(),
                  record.qname.ToString().c_str(),
                  std::string(ToString(record.qtype)).c_str(),
                  std::string(ToString(record.rcode)).c_str(),
                  record.tc ? " +TC" : "");
    }
  }
  return result.rcode == dns::Rcode::kNoError ? 0 : 1;
}

int CmdZoneCheck(const Args& args) {
  if (args.positional.empty()) return Usage();
  std::ifstream file(args.positional[0]);
  if (!file) {
    std::fprintf(stderr, "error: cannot open %s\n",
                 args.positional[0].c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  dns::Name origin;
  if (args.Has("origin")) {
    auto parsed = dns::Name::Parse(args.Get("origin", "."));
    if (!parsed) {
      std::fprintf(stderr, "error: bad --origin\n");
      return 1;
    }
    origin = *parsed;
  }
  auto parsed = zone::ParseMasterFile(buffer.str(), origin);
  for (const auto& error : parsed.errors) {
    std::fprintf(stderr, "%s:%zu: %s\n", args.positional[0].c_str(),
                 error.line, error.message.c_str());
  }
  if (!parsed.zone) {
    std::fprintf(stderr, "FATAL: zone did not load\n");
    return 1;
  }
  std::printf("zone %s: %zu names, %zu records%s\n",
              parsed.zone->apex().ToString().c_str(),
              parsed.zone->name_count(), parsed.zone->record_count(),
              parsed.zone->IsSigned() ? " (signed)" : "");
  return parsed.errors.empty() ? 0 : 1;
}

int CmdZoneSample(const Args&) {
  zone::ZoneBuildConfig config;
  config.apex = *dns::Name::Parse("example");
  config.nameservers = {{*dns::Name::Parse("ns1.example"),
                         {*net::IpAddress::Parse("192.0.2.53"),
                          *net::IpAddress::Parse("2001:db8::53")}}};
  auto zone = zone::MakeZoneSkeleton(config);
  zone::PopulateDelegations(zone, 5, "dom", 0.5,
                            net::Ipv4Address(100, 70, 0, 0));
  zone.Freeze();
  std::printf("%s", zone::ToMasterFile(zone).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  const std::optional<Args> parsed = Args::Parse(argc, argv, 2);
  if (!parsed) return Usage();
  const Args& args = *parsed;
  if (command == "simulate") return CmdSimulate(args);
  if (command == "inspect") return CmdInspect(args);
  if (command == "anonymize") return CmdAnonymize(args);
  if (command == "report") return CmdReport(args);
  if (command == "export-pcap") return CmdExportPcap(args);
  if (command == "import-pcap") return CmdImportPcap(args);
  if (command == "dig") return CmdDig(args);
  if (command == "zone-check") return CmdZoneCheck(args);
  if (command == "zone-sample") return CmdZoneSample(args);
  if (command == "verify") return CmdVerify(args);
  return Usage();
}
