#include "analysis/rdns.h"

#include "zone/reverse.h"

namespace clouddns::analysis {

RdnsDatabase::RdnsDatabase(
    const std::vector<std::pair<net::IpAddress, dns::Name>>& ptr_records)
    : v4_zone_(*dns::Name::Parse("in-addr.arpa")),
      v6_zone_(*dns::Name::Parse("ip6.arpa")) {
  for (const auto& [address, target] : ptr_records) {
    dns::Name owner = zone::ReverseName(address);
    zone::Zone& zone = address.is_v4() ? v4_zone_ : v6_zone_;
    zone.Add(dns::MakePtr(owner, target, 3600));
    ++count_;
  }
  v4_zone_.Freeze();
  v6_zone_.Freeze();
}

std::optional<dns::Name> RdnsDatabase::Lookup(
    const net::IpAddress& address) const {
  dns::Name owner = zone::ReverseName(address);
  const zone::Zone& zone = address.is_v4() ? v4_zone_ : v6_zone_;
  auto result = zone.Lookup(owner, dns::RrType::kPtr);
  if (result.status != zone::LookupStatus::kAnswer || result.records.empty()) {
    return std::nullopt;
  }
  return std::get<dns::PtrRdata>(result.records.front().rdata).target;
}

std::map<std::string, std::vector<net::IpAddress>>
RdnsDatabase::GroupByPtrName(
    const std::vector<net::IpAddress>& addresses) const {
  std::map<std::string, std::vector<net::IpAddress>> groups;
  for (const auto& address : addresses) {
    if (auto target = Lookup(address)) {
      groups[target->ToKey()].push_back(address);
    }
  }
  return groups;
}

std::optional<std::string> SiteTagFromPtr(const dns::Name& ptr) {
  // "<host>.<site>.<org>.example": the site is the second label after the
  // host, i.e. labels[count-3] counting "example" and the org domain.
  if (ptr.LabelCount() < 4) return std::nullopt;
  return std::string(ptr.Label(ptr.LabelCount() - 3));
}

}  // namespace clouddns::analysis
