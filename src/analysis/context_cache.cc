#include "analysis/context_cache.h"

#include <algorithm>
#include <sstream>

namespace clouddns::analysis {
namespace {

constexpr const char* kMagic = "CLOUDDNSCTX";
// v2: adds the "robust" line (fleet-wide retry/timeout/failover totals).
// v3: the "robust" line drops its fifth (served-stale) field.
constexpr int kVersion = 3;
// Shortest possible PTR line: "r", an address and a name, each at least one
// byte, two separators and the newline.
constexpr std::streamsize kMinPtrLineBytes = 6;

// Reads one line and splits off the leading tag; returns false on EOF or
// tag mismatch. The payload (everything after the tag and one space) lands
// in `rest`.
bool ReadTagged(std::istream& in, const char* tag, std::string& rest) {
  std::string line;
  if (!std::getline(in, line)) return false;
  const std::size_t tag_len = std::string(tag).size();
  if (line.compare(0, tag_len, tag) != 0) return false;
  if (line.size() == tag_len) {
    rest.clear();
    return true;
  }
  if (line[tag_len] != ' ') return false;
  rest = line.substr(tag_len + 1);
  return true;
}

bool ParseScenarioContext(std::istream& in, cloud::ScenarioResult& result);

}  // namespace

base::io::IoStatus SaveScenarioContextStatus(
    const std::string& path, const cloud::ScenarioResult& result) {
  std::ostringstream out;
  out << kMagic << " v" << kVersion << "\n";
  out << "window " << result.window_start << " " << result.window_end << "\n";

  out << "zones " << result.zone_domain_count << " "
      << result.zone_domains_by_tld.size() << "\n";
  for (const auto& [tld, count] : result.zone_domains_by_tld) {
    out << "tld " << count << " " << tld << "\n";
  }

  out << "servers " << result.servers.size() << "\n";
  for (const auto& server : result.servers) {
    out << "server " << server.id << " " << (server.captured ? 1 : 0) << " "
        << (server.anycast ? 1 : 0) << " " << server.sites << " "
        << server.label << "\n";
  }

  auto ases = result.asdb.AllInfo();
  out << "as " << ases.size() << "\n";
  for (const auto& info : ases) {
    out << "a " << info.asn << " " << info.org << "\n";
  }
  const auto& announcements = result.asdb.announcements();
  out << "announce " << announcements.size() << "\n";
  for (const auto& [prefix, asn] : announcements) {
    out << "p " << asn << " " << prefix.ToString() << "\n";
  }

  auto google = result.google_public.Entries();
  out << "google " << google.size() << "\n";
  for (const auto& [prefix, flag] : google) {
    out << "g " << (flag ? 1 : 0) << " " << prefix.ToString() << "\n";
  }

  out << "ptr " << result.ptr_records.size() << "\n";
  for (const auto& [address, name] : result.ptr_records) {
    out << "r " << address.ToString() << " " << name.ToString() << "\n";
  }

  out << "issued " << result.client_queries_issued << "\n";
  out << "leaf " << result.leaf_queries << "\n";
  out << "perprov " << result.client_queries_per_provider.size() << "\n";
  for (const auto& [provider, count] : result.client_queries_per_provider) {
    out << "q " << count << " " << provider << "\n";
  }
  out << "robust " << result.robustness.upstream_queries << " "
      << result.robustness.retransmits << " " << result.robustness.timeouts
      << " " << result.robustness.failovers << "\n";
  out << "end\n";

  const std::string text = out.str();
  std::vector<std::uint8_t> payload(text.begin(), text.end());
  return base::io::WriteFramedFile(path, base::io::kTagContext, payload);
}

base::io::IoStatus LoadScenarioContextStatus(const std::string& path,
                                             cloud::ScenarioResult& result) {
  std::vector<std::uint8_t> payload;
  base::io::IoStatus status =
      base::io::ReadFramedFile(path, base::io::kTagContext, payload);
  if (!status.ok()) return status;
  std::istringstream in(std::string(payload.begin(), payload.end()));
  if (ParseScenarioContext(in, result)) return base::io::IoStatus::Ok();
  return base::io::IoStatus::Error(
      base::io::IoCode::kPayloadCorrupt,
      "context sidecar text malformed or version-mismatched");
}

namespace {

bool ParseScenarioContext(std::istream& in, cloud::ScenarioResult& result) {
  std::string rest;
  if (!ReadTagged(in, kMagic, rest)) return false;
  if (rest != "v" + std::to_string(kVersion)) return false;

  if (!ReadTagged(in, "window", rest)) return false;
  {
    std::istringstream fields(rest);
    if (!(fields >> result.window_start >> result.window_end)) return false;
  }

  std::size_t tld_count = 0;
  if (!ReadTagged(in, "zones", rest)) return false;
  {
    std::istringstream fields(rest);
    if (!(fields >> result.zone_domain_count >> tld_count)) return false;
  }
  result.zone_domains_by_tld.clear();
  for (std::size_t i = 0; i < tld_count; ++i) {
    if (!ReadTagged(in, "tld", rest)) return false;
    std::istringstream fields(rest);
    std::size_t count = 0;
    std::string tld;
    if (!(fields >> count >> tld)) return false;
    result.zone_domains_by_tld[tld] = count;
  }

  std::size_t server_count = 0;
  if (!ReadTagged(in, "servers", rest)) return false;
  if (!(std::istringstream(rest) >> server_count)) return false;
  result.servers.clear();
  for (std::size_t i = 0; i < server_count; ++i) {
    if (!ReadTagged(in, "server", rest)) return false;
    std::istringstream fields(rest);
    cloud::ServerMeta meta;
    int captured = 0, anycast = 0;
    if (!(fields >> meta.id >> captured >> anycast >> meta.sites >>
          meta.label)) {
      return false;
    }
    meta.captured = captured != 0;
    meta.anycast = anycast != 0;
    result.servers.push_back(std::move(meta));
  }

  std::size_t as_count = 0;
  if (!ReadTagged(in, "as", rest)) return false;
  if (!(std::istringstream(rest) >> as_count)) return false;
  result.asdb = net::AsDatabase();
  for (std::size_t i = 0; i < as_count; ++i) {
    if (!ReadTagged(in, "a", rest)) return false;
    std::istringstream fields(rest);
    net::Asn asn = 0;
    if (!(fields >> asn)) return false;
    std::string org;
    std::getline(fields, org);
    if (!org.empty() && org.front() == ' ') org.erase(0, 1);
    result.asdb.AddAs(asn, std::move(org));
  }
  std::size_t announce_count = 0;
  if (!ReadTagged(in, "announce", rest)) return false;
  if (!(std::istringstream(rest) >> announce_count)) return false;
  for (std::size_t i = 0; i < announce_count; ++i) {
    if (!ReadTagged(in, "p", rest)) return false;
    std::istringstream fields(rest);
    net::Asn asn = 0;
    std::string text;
    if (!(fields >> asn >> text)) return false;
    auto prefix = net::Prefix::Parse(text);
    if (!prefix) return false;
    result.asdb.Announce(*prefix, asn);
  }

  std::size_t google_count = 0;
  if (!ReadTagged(in, "google", rest)) return false;
  if (!(std::istringstream(rest) >> google_count)) return false;
  result.google_public = net::PrefixMap<bool>();
  for (std::size_t i = 0; i < google_count; ++i) {
    if (!ReadTagged(in, "g", rest)) return false;
    std::istringstream fields(rest);
    int flag = 0;
    std::string text;
    if (!(fields >> flag >> text)) return false;
    auto prefix = net::Prefix::Parse(text);
    if (!prefix) return false;
    result.google_public.Insert(*prefix, flag != 0);
  }

  std::size_t ptr_count = 0;
  if (!ReadTagged(in, "ptr", rest)) return false;
  if (!(std::istringstream(rest) >> ptr_count)) return false;
  // The count comes from the file: one the rest of the payload cannot hold
  // is corrupt, and must be rejected before it sizes an allocation.
  const std::streamsize remaining =
      std::max<std::streamsize>(0, in.rdbuf()->in_avail());
  if (ptr_count > static_cast<std::size_t>(remaining / kMinPtrLineBytes)) {
    return false;
  }
  result.ptr_records.clear();
  result.ptr_records.reserve(ptr_count);
  for (std::size_t i = 0; i < ptr_count; ++i) {
    if (!ReadTagged(in, "r", rest)) return false;
    std::istringstream fields(rest);
    std::string address_text, name_text;
    if (!(fields >> address_text >> name_text)) return false;
    auto address = net::IpAddress::Parse(address_text);
    auto name = dns::Name::Parse(name_text);
    if (!address || !name) return false;
    result.ptr_records.emplace_back(*address, std::move(*name));
  }

  if (!ReadTagged(in, "issued", rest)) return false;
  if (!(std::istringstream(rest) >> result.client_queries_issued)) {
    return false;
  }
  if (!ReadTagged(in, "leaf", rest)) return false;
  if (!(std::istringstream(rest) >> result.leaf_queries)) return false;

  std::size_t provider_count = 0;
  if (!ReadTagged(in, "perprov", rest)) return false;
  if (!(std::istringstream(rest) >> provider_count)) return false;
  result.client_queries_per_provider.clear();
  for (std::size_t i = 0; i < provider_count; ++i) {
    if (!ReadTagged(in, "q", rest)) return false;
    std::istringstream fields(rest);
    std::uint64_t count = 0;
    if (!(fields >> count)) return false;
    std::string provider;
    std::getline(fields, provider);
    if (!provider.empty() && provider.front() == ' ') provider.erase(0, 1);
    result.client_queries_per_provider[provider] = count;
  }

  if (!ReadTagged(in, "robust", rest)) return false;
  {
    std::istringstream fields(rest);
    if (!(fields >> result.robustness.upstream_queries >>
          result.robustness.retransmits >> result.robustness.timeouts >>
          result.robustness.failovers)) {
      return false;
    }
  }

  return ReadTagged(in, "end", rest);
}

}  // namespace

}  // namespace clouddns::analysis
