#include "net/asdb.h"

#include <stdexcept>

namespace clouddns::net {

void AsDatabase::AddAs(Asn asn, std::string org) {
  auto [it, inserted] = as_info_.try_emplace(asn, AsInfo{asn, std::move(org)});
  if (!inserted && it->second.org.empty()) it->second.org = org;
}

void AsDatabase::Announce(const Prefix& prefix, Asn asn) {
  if (!as_info_.contains(asn)) {
    throw std::invalid_argument("Announce: unknown ASN " +
                                std::to_string(asn));
  }
  routes_.Insert(prefix, asn);
}

std::optional<Asn> AsDatabase::OriginAs(const IpAddress& addr) const {
  return routes_.Lookup(addr);
}

const AsInfo* AsDatabase::Info(Asn asn) const {
  auto it = as_info_.find(asn);
  return it == as_info_.end() ? nullptr : &it->second;
}

}  // namespace clouddns::net
