#include "zone/dnssec.h"

#include <stdexcept>

#include "base/hash.h"

namespace clouddns::zone {
namespace {

constexpr std::uint64_t kZskSeed = 0x5a534b5a534b5a53ull;
constexpr std::uint64_t kKskSeed = 0x4b534b4b534b4b53ull;
constexpr std::uint64_t kSigSeed = 0x5349475349475349ull;

/// The one mock hash expansion: `out.size()` bytes from the seed `h`, in
/// 8-byte blocks, each the current state little-endian, with an LCG step
/// between blocks.
void HashBytes(std::uint64_t h, std::span<std::uint8_t> out) {
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    for (std::size_t b = 0; b < 8; ++b) {
      out[i + b] = static_cast<std::uint8_t>(h >> (8 * b));
    }
    h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  for (std::size_t b = 0; i < out.size(); ++i, ++b) {
    out[i] = static_cast<std::uint8_t>(h >> (8 * b));
  }
}

}  // namespace

std::uint16_t ZskTagFor(const dns::Name& zone_apex) {
  return static_cast<std::uint16_t>(zone_apex.PresentationHash(kZskSeed));
}

std::uint16_t KskTagFor(const dns::Name& zone_apex) {
  return static_cast<std::uint16_t>(zone_apex.PresentationHash(kKskSeed));
}

void FillMockSignature(const dns::Name& signer, const dns::Name& owner,
                       dns::RrType type, std::span<std::uint8_t> out) {
  std::uint64_t h = signer.PresentationHash(kSigSeed);
  h = owner.PresentationHash(h);
  h = base::Fnv1a(ToString(type), h);
  HashBytes(h, out);
}

void WriteRrsig(const dns::Name& signer, const dns::Name& owner,
                dns::RrType covered, std::uint32_t ttl,
                SignatureWindow window, dns::Section section,
                dns::ResponseWriter& out) {
  dns::WireWriter& sig =
      out.BeginRecord(section, owner, dns::RrType::kRrsig, ttl);
  sig.WriteU16(static_cast<std::uint16_t>(covered));
  sig.WriteU8(kMockAlgorithm);
  sig.WriteU8(static_cast<std::uint8_t>(owner.LabelCount()));
  sig.WriteU32(ttl);  // original TTL
  sig.WriteU32(window.expiration);
  sig.WriteU32(window.inception);
  sig.WriteU16(covered == dns::RrType::kDnskey ? KskTagFor(signer)
                                               : ZskTagFor(signer));
  sig.WriteName(signer, /*compress=*/false);
  FillMockSignature(signer, owner, covered, sig.Extend(kMockSignatureSize));
  out.EndRecord();
}

void FillMockPublicKey(const dns::Name& zone_apex, std::uint16_t flags,
                       std::span<std::uint8_t> out) {
  HashBytes(zone_apex.PresentationHash(flags == kKskFlags ? kKskSeed
                                                          : kZskSeed),
            out);
}

void FillMockDsDigest(const dns::Name& child_apex,
                      std::span<std::uint8_t> out) {
  HashBytes(child_apex.PresentationHash(kKskSeed), out);
}

std::vector<dns::ResourceRecord> MakeApexDnskeys(const dns::Name& zone_apex,
                                                 std::uint32_t ttl) {
  auto make_key = [&zone_apex, ttl](std::uint16_t flags) {
    dns::DnskeyRdata key;
    key.flags = flags;
    key.protocol = 3;
    key.algorithm = kMockAlgorithm;
    key.public_key.resize(kMockKeySize);
    FillMockPublicKey(zone_apex, flags, key.public_key);
    return dns::ResourceRecord{zone_apex, dns::RrType::kDnskey,
                               dns::RrClass::kIn, ttl, std::move(key)};
  };
  // Built in place: an initializer list would copy each 256-byte key.
  std::vector<dns::ResourceRecord> keys;
  keys.reserve(kApexDnskeyCount);
  keys.push_back(make_key(kKskFlags));
  keys.push_back(make_key(kZskFlags));
  return keys;
}

dns::ResourceRecord MakeDs(const dns::Name& child_apex, std::uint32_t ttl) {
  dns::DsRdata ds;
  ds.key_tag = KskTagFor(child_apex);
  ds.algorithm = kMockAlgorithm;
  ds.digest_type = 2;  // SHA-256
  ds.digest.resize(kMockDigestSize);
  FillMockDsDigest(child_apex, ds.digest);
  return dns::ResourceRecord{child_apex, dns::RrType::kDs, dns::RrClass::kIn,
                             ttl, std::move(ds)};
}

void SignZone(Zone& zone, std::uint32_t dnskey_ttl) {
  if (zone.HasApexDnskey()) {
    throw std::logic_error("zone::SignZone: " + zone.apex().ToString() +
                           " is already signed");
  }
  // On a frozen zone the first Add throws before it changes anything.
  for (auto& key : MakeApexDnskeys(zone.apex(), dnskey_ttl)) {
    zone.Add(std::move(key));
  }
  zone.Freeze();
}

}  // namespace clouddns::zone
