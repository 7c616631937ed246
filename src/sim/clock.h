// Simulation time: microseconds since the Unix epoch, plus the civil-date
// arithmetic the longitudinal analyses need (weekly capture windows,
// monthly buckets for the Q-min rollout study).
#pragma once

#include <cstdint>
#include <string>

namespace clouddns::sim {

/// Microseconds since 1970-01-01T00:00:00Z.
using TimeUs = std::uint64_t;

inline constexpr TimeUs kMicrosPerSecond = 1'000'000ull;
inline constexpr TimeUs kMicrosPerHour = 3'600ull * kMicrosPerSecond;
inline constexpr TimeUs kMicrosPerDay = 24 * kMicrosPerHour;

struct CivilDate {
  int year = 1970;
  unsigned month = 1;  ///< 1..12
  unsigned day = 1;    ///< 1..31

  friend bool operator==(const CivilDate&, const CivilDate&) = default;
};

/// Days since the epoch for a civil date (Howard Hinnant's algorithm;
/// valid across the whole simulated range).
[[nodiscard]] std::int64_t DaysFromCivil(const CivilDate& date);
[[nodiscard]] CivilDate CivilFromDays(std::int64_t days);

[[nodiscard]] TimeUs TimeFromCivil(const CivilDate& date);
[[nodiscard]] CivilDate CivilFromTime(TimeUs time);

/// "2020-04" style key, the Figure 3 monthly bucket.
[[nodiscard]] std::string MonthKey(TimeUs time);

/// "2020-04-05" rendering.
[[nodiscard]] std::string DateString(TimeUs time);

}  // namespace clouddns::sim
