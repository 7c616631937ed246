#include "capture/anonymize.h"

#include "base/hash.h"

namespace clouddns::capture {

// The SplitMix64 finalizer is the keyed PRF core, and it also advances
// the prefix hash below.
bool Anonymizer::FlipBit(std::uint64_t prefix_hash) const {
  return (base::Mix64(prefix_hash ^ key_) & 1u) != 0;
}

net::IpAddress Anonymizer::Anonymize(const net::IpAddress& address) const {
  // Crypto-PAn construction: output bit i = input bit i XOR f(key, the
  // i-bit input prefix). Identical prefixes produce identical flip
  // decisions, so shared prefixes stay shared (and only those).
  const int width = address.bit_width();
  // Running hash of the consumed prefix; seeded per family so v4 and v6
  // mappings are independent.
  std::uint64_t prefix_hash = address.is_v4() ? 0x3404ull : 0x3606ull;

  if (address.is_v4()) {
    std::uint32_t out = 0;
    for (int i = 0; i < width; ++i) {
      bool bit = address.bit(i);
      bool flipped = bit ^ FlipBit(prefix_hash);
      out = (out << 1) | (flipped ? 1u : 0u);
      prefix_hash = base::Mix64(prefix_hash * 2 + (bit ? 1 : 0));
    }
    return net::Ipv4Address(out);
  }

  net::Ipv6Address::Bytes bytes{};
  for (int i = 0; i < width; ++i) {
    bool bit = address.bit(i);
    bool flipped = bit ^ FlipBit(prefix_hash);
    if (flipped) {
      bytes[static_cast<std::size_t>(i / 8)] |=
          static_cast<std::uint8_t>(0x80u >> (i % 8));
    }
    prefix_hash = base::Mix64(prefix_hash * 2 + (bit ? 1 : 0));
  }
  return net::Ipv6Address(bytes);
}

CaptureBuffer Anonymizer::AnonymizeCapture(const CaptureBuffer& records) const {
  CaptureBuffer out;
  out.reserve(records.size());
  for (const CaptureRecord& record : records) {
    CaptureRecord copy = record;
    copy.src = Anonymize(record.src);
    out.push_back(std::move(copy));
  }
  return out;
}

}  // namespace clouddns::capture
