// Strict parsing of the integer environment overrides (CLOUDDNS_THREADS,
// CLOUDDNS_QUERIES). A value either reads as a positive decimal integer
// exactly or is ignored: "-1" is not 2^64-1 and "8x" is not 8.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <system_error>

namespace clouddns::base {

/// The value of environment variable `name` when it is digits only, above
/// 0 and at most 2^64-1. Unset, empty, signed, trailing characters, 0 or
/// out of range all give nullopt, so the caller keeps its default.
inline std::optional<std::uint64_t> PositiveEnvInteger(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const std::string_view text(env);
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size() || value == 0) {
    return std::nullopt;
  }
  return value;
}

}  // namespace clouddns::base
