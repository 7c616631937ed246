#include "sim/clock.h"

#include <cstdio>

namespace clouddns::sim {

std::int64_t DaysFromCivil(const CivilDate& date) {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms".
  int y = date.year;
  unsigned m = date.month;
  unsigned d = date.day;
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<std::int64_t>(era) * 146097 +
         static_cast<std::int64_t>(doe) - 719468;
}

CivilDate CivilFromDays(std::int64_t days) {
  days += 719468;
  const std::int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : static_cast<unsigned>(-9));
  return CivilDate{static_cast<int>(y + (m <= 2)), m, d};
}

TimeUs TimeFromCivil(const CivilDate& date) {
  return static_cast<TimeUs>(DaysFromCivil(date)) * kMicrosPerDay;
}

CivilDate CivilFromTime(TimeUs time) {
  return CivilFromDays(static_cast<std::int64_t>(time / kMicrosPerDay));
}

std::string MonthKey(TimeUs time) {
  CivilDate date = CivilFromTime(time);
  char buf[16];
  int n = std::snprintf(buf, sizeof buf, "%04d-%02u", date.year, date.month);
  return std::string(buf, static_cast<std::size_t>(n));
}

std::string DateString(TimeUs time) {
  CivilDate date = CivilFromTime(time);
  char buf[16];
  int n = std::snprintf(buf, sizeof buf, "%04d-%02u-%02u", date.year,
                        date.month, date.day);
  return std::string(buf, static_cast<std::size_t>(n));
}

}  // namespace clouddns::sim
