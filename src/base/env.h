// Strict parsing of unsigned integers: the environment overrides
// (CLOUDDNS_THREADS, CLOUDDNS_QUERIES) and cdnstool's numeric options. A
// value either reads as a decimal integer exactly or is rejected: "-1" is
// not 2^64-1, "8x" is not 8 and "1e5" is not 1.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace clouddns::base {

/// `text` as a number when it is digits only and at most 2^64-1. Empty,
/// signed, trailing characters or out of range all give nullopt.
inline std::optional<std::uint64_t> ParseUnsignedInteger(
    std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// ParseUnsignedInteger, with 0 rejected too.
inline std::optional<std::uint64_t> ParsePositiveInteger(
    std::string_view text) {
  const auto value = ParseUnsignedInteger(text);
  if (value == 0u) return std::nullopt;
  return value;
}

/// The value of environment variable `name` read by ParsePositiveInteger;
/// unset or malformed gives nullopt, so the caller keeps its default.
inline std::optional<std::uint64_t> PositiveEnvInteger(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  return ParsePositiveInteger(env);
}

}  // namespace clouddns::base
