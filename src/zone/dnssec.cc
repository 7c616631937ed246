#include "zone/dnssec.h"

#include "base/threads.h"

namespace clouddns::zone {
namespace {

std::uint64_t Fnv1a(std::string_view text, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kZskSeed = 0x5a534b5a534b5a53ull;
constexpr std::uint64_t kKskSeed = 0x4b534b4b534b4b53ull;
constexpr std::uint64_t kSigSeed = 0x5349475349475349ull;

// Fixed validity window: the simulation clock always falls inside it, so
// mock signatures never "expire" mid-run.
constexpr std::uint32_t kInception = 1514764800;   // 2018-01-01
constexpr std::uint32_t kExpiration = 1735689600;  // 2025-01-01

std::vector<std::uint8_t> HashBytes(std::uint64_t h, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(h >> (8 * (i % 8)));
    if (i % 8 == 7) h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  return out;
}

}  // namespace

std::uint16_t ZskTagFor(const dns::Name& zone_apex) {
  return static_cast<std::uint16_t>(zone_apex.PresentationHash(kZskSeed));
}

std::uint16_t KskTagFor(const dns::Name& zone_apex) {
  return static_cast<std::uint16_t>(zone_apex.PresentationHash(kKskSeed));
}

std::vector<std::uint8_t> MockSignature(const dns::Name& signer,
                                        const dns::Name& owner,
                                        dns::RrType type) {
  std::uint64_t h = signer.PresentationHash(kSigSeed);
  h = owner.PresentationHash(h);
  h = Fnv1a(ToString(type), h);
  return HashBytes(h, 256);  // RSA-2048 signature size
}

std::vector<dns::ResourceRecord> MakeApexDnskeys(const dns::Name& zone_apex,
                                                 std::uint32_t ttl) {
  auto make_key = [&zone_apex, ttl](std::uint16_t flags, std::uint64_t seed) {
    dns::DnskeyRdata key;
    key.flags = flags;
    key.protocol = 3;
    key.algorithm = kMockAlgorithm;
    key.public_key = HashBytes(zone_apex.PresentationHash(seed), 256);
    return dns::ResourceRecord{zone_apex, dns::RrType::kDnskey,
                               dns::RrClass::kIn, ttl, std::move(key)};
  };
  return {make_key(257, kKskSeed), make_key(256, kZskSeed)};
}

dns::ResourceRecord MakeDs(const dns::Name& child_apex, std::uint32_t ttl) {
  dns::DsRdata ds;
  ds.key_tag = KskTagFor(child_apex);
  ds.algorithm = kMockAlgorithm;
  ds.digest_type = 2;  // SHA-256
  ds.digest = HashBytes(child_apex.PresentationHash(kKskSeed), 32);
  return dns::ResourceRecord{child_apex, dns::RrType::kDs, dns::RrClass::kIn,
                             ttl, std::move(ds)};
}

void SignZone(Zone& zone, std::uint32_t dnskey_ttl) {
  for (auto& key : MakeApexDnskeys(zone.apex(), dnskey_ttl)) {
    zone.Add(std::move(key));
  }
  // One target per RRset of the frozen image, in canonical (owner, type)
  // order, so the RRSIGs at each owner come out in type order.
  zone.Freeze();
  std::vector<const dns::ResourceRecord*> targets;
  for (const Zone::Owner& owner : zone.Owners()) {
    for (std::size_t i = 0; i < owner.records.size(); ++i) {
      const dns::ResourceRecord& rr = owner.records[i];
      if (rr.type == dns::RrType::kRrsig) continue;
      if (i == 0 || owner.records[i - 1].type != rr.type) {
        targets.push_back(&rr);
      }
    }
  }
  // Signature computation is pure (a function of signer/owner/type alone),
  // so it fans out over the shared pool into slots indexed by target.
  // Insertion stays serial and in target order below — the RRSIG order at
  // each owner IS the Add order, and that order is part of the zone's byte
  // image, so it must not depend on worker scheduling.
  const dns::Name& apex = zone.apex();
  std::vector<dns::ResourceRecord> rrsigs(targets.size());
  base::ThreadPool::Shared().ParallelFor(
      targets.size(), base::EffectiveThreads(0), [&](std::size_t i) {
        const dns::ResourceRecord& target = *targets[i];
        dns::RrsigRdata sig;
        sig.type_covered = static_cast<std::uint16_t>(target.type);
        sig.algorithm = kMockAlgorithm;
        sig.labels = static_cast<std::uint8_t>(target.name.LabelCount());
        sig.original_ttl = target.ttl;
        sig.expiration = kExpiration;
        sig.inception = kInception;
        sig.key_tag = target.type == dns::RrType::kDnskey ? KskTagFor(apex)
                                                          : ZskTagFor(apex);
        sig.signer = apex;
        sig.signature = MockSignature(apex, target.name, target.type);
        rrsigs[i] = dns::ResourceRecord{target.name, dns::RrType::kRrsig,
                                        dns::RrClass::kIn, target.ttl,
                                        std::move(sig)};
      });
  zone.Reserve(rrsigs.size());  // reopens: `targets` dangles from here
  for (auto& rrsig : rrsigs) zone.Add(std::move(rrsig));
  zone.Freeze();
}

bool VerifyRrsig(const dns::RrsigRdata& sig, const dns::Name& owner,
                 dns::RrType type) {
  if (sig.algorithm != kMockAlgorithm) return false;
  if (sig.type_covered != static_cast<std::uint16_t>(type)) return false;
  return sig.signature == MockSignature(sig.signer, owner, type);
}

bool VerifyDsMatchesKey(const dns::DsRdata& ds, const dns::Name& child_apex) {
  return ds.key_tag == KskTagFor(child_apex) &&
         ds.digest == HashBytes(child_apex.PresentationHash(kKskSeed), 32);
}

}  // namespace clouddns::zone
