#include "analysis/rssac002.h"

#include <unordered_set>

namespace clouddns::analysis {

std::vector<Rssac002Day> Rssac002Report(
    const capture::CaptureBuffer& records) {
  // Keys stay binary per record: days are UTC day numbers, sources are
  // addresses and rcodes are codes. Strings render once per day.
  struct Accumulator {
    Rssac002Day day;
    std::map<dns::Rcode, std::uint64_t> rcodes;
    std::unordered_set<net::IpAddress, net::IpAddressHash> sources_v4;
    std::unordered_set<net::IpAddress, net::IpAddressHash> sources_v6;
    double query_bytes = 0;
    double response_bytes = 0;
  };
  std::map<sim::TimeUs, Accumulator> days;

  for (const auto& record : records) {
    Accumulator& acc = days[record.time_us / sim::kMicrosPerDay];
    ++acc.day.queries;
    ++acc.rcodes[record.rcode];
    const bool tcp = record.transport == dns::Transport::kTcp;
    const bool v4 = record.src.is_v4();
    (tcp ? acc.day.tcp_queries : acc.day.udp_queries)++;
    (v4 ? acc.day.ipv4_queries : acc.day.ipv6_queries)++;
    if (tcp) {
      (v4 ? acc.day.tcp_ipv4 : acc.day.tcp_ipv6)++;
    } else {
      (v4 ? acc.day.udp_ipv4 : acc.day.udp_ipv6)++;
    }
    (v4 ? acc.sources_v4 : acc.sources_v6).insert(record.src);
    acc.query_bytes += record.query_size;
    acc.response_bytes += record.response_size;
  }

  std::vector<Rssac002Day> report;
  report.reserve(days.size());
  for (auto& [day_number, acc] : days) {
    acc.day.date = sim::DateString(day_number * sim::kMicrosPerDay);
    for (const auto& [rcode, count] : acc.rcodes) {
      acc.day.rcode_volume[std::string(ToString(rcode))] += count;
    }
    acc.day.unique_sources_ipv4 = acc.sources_v4.size();
    acc.day.unique_sources_ipv6 = acc.sources_v6.size();
    if (acc.day.queries > 0) {
      acc.day.average_query_size =
          acc.query_bytes / static_cast<double>(acc.day.queries);
      acc.day.average_response_size =
          acc.response_bytes / static_cast<double>(acc.day.queries);
    }
    report.push_back(std::move(acc.day));
  }
  return report;
}

std::string RenderRssac002Yaml(const Rssac002Day& day,
                               const std::string& service) {
  std::string out;
  out += "---\n";
  out += "version: rssac002v3\n";
  out += "service: " + service + "\n";
  out += "start-period: " + day.date + "T00:00:00Z\n";
  out += "metric: traffic-volume\n";
  out += "dns-udp-queries-received-ipv4: " + std::to_string(day.udp_ipv4) +
         "\n";
  out += "dns-udp-queries-received-ipv6: " + std::to_string(day.udp_ipv6) +
         "\n";
  out += "dns-tcp-queries-received-ipv4: " + std::to_string(day.tcp_ipv4) +
         "\n";
  out += "dns-tcp-queries-received-ipv6: " + std::to_string(day.tcp_ipv6) +
         "\n";
  out += "---\n";
  out += "metric: rcode-volume\n";
  for (const auto& [rcode, count] : day.rcode_volume) {
    out += rcode + ": " + std::to_string(count) + "\n";
  }
  out += "---\n";
  out += "metric: unique-sources\n";
  out += "num-sources-ipv4: " + std::to_string(day.unique_sources_ipv4) + "\n";
  out += "num-sources-ipv6: " + std::to_string(day.unique_sources_ipv6) + "\n";
  return out;
}

}  // namespace clouddns::analysis
