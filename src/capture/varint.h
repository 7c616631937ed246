// LEB128 varint + zigzag primitives for the columnar capture format and
// the `.shards` sidecar.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace clouddns::capture {

inline void PutVarint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Reads a varint from [p, end), advancing `p`. Returns nullopt on
/// truncation or overlong (>10 byte) encodings.
inline std::optional<std::uint64_t> GetVarint(const std::uint8_t*& p,
                                              const std::uint8_t* end) {
  std::uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (p == end) return std::nullopt;
    std::uint8_t byte = *p++;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;
}

/// Reads a varint at `pos`, advancing it, with the limits above.
inline std::optional<std::uint64_t> GetVarint(
    const std::vector<std::uint8_t>& in, std::size_t& pos) {
  if (pos > in.size()) return std::nullopt;
  const std::uint8_t* p = in.data() + pos;
  auto value = GetVarint(p, in.data() + in.size());
  pos = static_cast<std::size_t>(p - in.data());
  return value;
}

inline std::uint64_t ZigzagEncode(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t ZigzagDecode(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

}  // namespace clouddns::capture
