#include "net/ip.h"

#include <charconv>
#include <cstdio>

#include "base/hash.h"

namespace clouddns::net {
namespace {

// Parses a decimal octet 0..255 at the front of `text`, advancing it.
// Rejects empty input, leading zeros ("01"), and values > 255.
std::optional<std::uint8_t> ConsumeOctet(std::string_view& text) {
  std::size_t len = 0;
  unsigned value = 0;
  while (len < text.size() && text[len] >= '0' && text[len] <= '9') {
    value = value * 10 + static_cast<unsigned>(text[len] - '0');
    ++len;
    if (len > 3) return std::nullopt;
  }
  if (len == 0) return std::nullopt;
  if (len > 1 && text[0] == '0') return std::nullopt;
  if (value > 255) return std::nullopt;
  text.remove_prefix(len);
  return static_cast<std::uint8_t>(value);
}

std::optional<int> HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return std::nullopt;
}

}  // namespace

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view text) {
  std::array<std::uint8_t, 4> octets{};
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (text.empty() || text[0] != '.') return std::nullopt;
      text.remove_prefix(1);
    }
    auto octet = ConsumeOctet(text);
    if (!octet) return std::nullopt;
    octets[static_cast<std::size_t>(i)] = *octet;
  }
  if (!text.empty()) return std::nullopt;
  return Ipv4Address(octets[0], octets[1], octets[2], octets[3]);
}

std::string Ipv4Address::ToString() const {
  char buf[16];
  int n = std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", octet(0), octet(1),
                        octet(2), octet(3));
  return std::string(buf, static_cast<std::size_t>(n));
}

std::array<std::uint8_t, 4> Ipv4Address::ToBytes() const {
  return {octet(0), octet(1), octet(2), octet(3)};
}

Ipv4Address Ipv4Address::FromBytes(const std::array<std::uint8_t, 4>& b) {
  return Ipv4Address(b[0], b[1], b[2], b[3]);
}

Ipv6Address Ipv6Address::FromGroups(
    const std::array<std::uint16_t, 8>& groups) {
  Bytes bytes{};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(groups[i] >> 8);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(groups[i] & 0xff);
  }
  return Ipv6Address(bytes);
}

std::optional<Ipv6Address> Ipv6Address::Parse(std::string_view text) {
  // Up to 8 groups; `gap` marks where "::" expands.
  std::array<std::uint16_t, 8> groups{};
  int count = 0;     // groups parsed so far
  int gap = -1;      // index of the "::" gap, -1 if none
  bool expect_group = true;

  if (text.starts_with("::")) {
    gap = 0;
    text.remove_prefix(2);
    if (text.empty()) return Ipv6Address{};  // "::"
  } else if (text.starts_with(":")) {
    return std::nullopt;  // single leading colon
  }

  while (!text.empty()) {
    if (!expect_group) {
      // After a group (or the initial "::") a separator or end is allowed.
      if (text[0] == ':') {
        text.remove_prefix(1);
        if (!text.empty() && text[0] == ':') {
          if (gap >= 0) return std::nullopt;  // second "::"
          gap = count;
          text.remove_prefix(1);
          if (text.empty()) break;
        }
        expect_group = true;
        continue;
      }
      return std::nullopt;
    }

    // Embedded IPv4 tail? Only valid as the last 32 bits.
    if (text.find('.') != std::string_view::npos &&
        text.find(':') == std::string_view::npos) {
      auto v4 = Ipv4Address::Parse(text);
      if (!v4 || count > 6) return std::nullopt;
      groups[static_cast<std::size_t>(count++)] =
          static_cast<std::uint16_t>(v4->bits() >> 16);
      groups[static_cast<std::size_t>(count++)] =
          static_cast<std::uint16_t>(v4->bits() & 0xffff);
      text = {};
      expect_group = false;
      break;
    }

    unsigned value = 0;
    int digits = 0;
    while (!text.empty()) {
      auto d = HexDigit(text[0]);
      if (!d) break;
      value = (value << 4) | static_cast<unsigned>(*d);
      ++digits;
      if (digits > 4) return std::nullopt;
      text.remove_prefix(1);
    }
    if (digits == 0) return std::nullopt;
    if (count >= 8) return std::nullopt;
    groups[static_cast<std::size_t>(count++)] =
        static_cast<std::uint16_t>(value);
    expect_group = false;
  }
  if (expect_group) return std::nullopt;  // trailing single colon

  if (gap < 0) {
    if (count != 8) return std::nullopt;
    return FromGroups(groups);
  }
  if (count >= 8) return std::nullopt;  // "::" must compress at least one zero

  std::array<std::uint16_t, 8> full{};
  for (int i = 0; i < gap; ++i) full[static_cast<std::size_t>(i)] =
      groups[static_cast<std::size_t>(i)];
  int tail = count - gap;
  for (int i = 0; i < tail; ++i) {
    full[static_cast<std::size_t>(8 - tail + i)] =
        groups[static_cast<std::size_t>(gap + i)];
  }
  return FromGroups(full);
}

std::string Ipv6Address::ToString() const {
  // RFC 5952: compress the longest run of >= 2 zero groups; first run wins
  // ties; lowercase hex without leading zeros.
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (group(i) != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && group(j) == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  out.reserve(41);
  char buf[8];
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      if (i >= 8) return out;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    int n = std::snprintf(buf, sizeof buf, "%x", group(i));
    out.append(buf, static_cast<std::size_t>(n));
    ++i;
  }
  return out;
}

std::optional<IpAddress> IpAddress::Parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    if (auto v6 = Ipv6Address::Parse(text)) return IpAddress(*v6);
    return std::nullopt;
  }
  if (auto v4 = Ipv4Address::Parse(text)) return IpAddress(*v4);
  return std::nullopt;
}

std::string IpAddress::ToString() const {
  return is_v4() ? v4().ToString() : v6().ToString();
}

bool IpAddress::bit(int i) const {
  if (is_v4()) {
    return (v4().bits() >> (31 - i)) & 1u;
  }
  const auto& b = v6().bytes();
  return (b[static_cast<std::size_t>(i / 8)] >> (7 - i % 8)) & 1u;
}

std::size_t IpAddressHash::operator()(const IpAddress& a) const noexcept {
  // FNV-1a over the family tag and address bytes.
  std::uint64_t h = base::kShortFnvBasis;
  auto mix = [&h](std::uint8_t byte) { h = base::Fnv1aStep(h, byte); };
  if (a.is_v4()) {
    mix(4);
    for (auto byte : a.v4().ToBytes()) mix(byte);
  } else {
    mix(6);
    for (auto byte : a.v6().bytes()) mix(byte);
  }
  return static_cast<std::size_t>(h);
}

std::string Endpoint::ToString() const {
  if (address.is_v6()) {
    return "[" + address.ToString() + "]:" + std::to_string(port);
  }
  return address.ToString() + ":" + std::to_string(port);
}

}  // namespace clouddns::net
