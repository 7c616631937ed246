#include "sim/clock.h"

#include <gtest/gtest.h>

namespace clouddns::sim {
namespace {

TEST(CivilDateTest, EpochIsDayZero) {
  EXPECT_EQ(DaysFromCivil({1970, 1, 1}), 0);
  EXPECT_EQ(CivilFromDays(0), (CivilDate{1970, 1, 1}));
}

TEST(CivilDateTest, KnownDates) {
  // The paper's capture weeks.
  EXPECT_EQ(DaysFromCivil({2018, 11, 4}), 17839);
  EXPECT_EQ(DaysFromCivil({2019, 11, 3}), 18203);
  EXPECT_EQ(DaysFromCivil({2020, 4, 5}), 18357);
}

TEST(CivilDateTest, RoundTripAcrossRange) {
  for (std::int64_t day = 17000; day < 19000; ++day) {
    EXPECT_EQ(DaysFromCivil(CivilFromDays(day)), day);
  }
}

TEST(CivilDateTest, LeapYearHandling) {
  // 2020 is a leap year.
  std::int64_t feb28 = DaysFromCivil({2020, 2, 28});
  EXPECT_EQ(CivilFromDays(feb28 + 1), (CivilDate{2020, 2, 29}));
  EXPECT_EQ(CivilFromDays(feb28 + 2), (CivilDate{2020, 3, 1}));
  // 2019 is not.
  std::int64_t feb28_19 = DaysFromCivil({2019, 2, 28});
  EXPECT_EQ(CivilFromDays(feb28_19 + 1), (CivilDate{2019, 3, 1}));
}

TEST(CivilDateTest, TimeConversion) {
  TimeUs t = TimeFromCivil({2020, 4, 5});
  EXPECT_EQ(CivilFromTime(t), (CivilDate{2020, 4, 5}));
  EXPECT_EQ(CivilFromTime(t + kMicrosPerDay - 1), (CivilDate{2020, 4, 5}));
  EXPECT_EQ(CivilFromTime(t + kMicrosPerDay), (CivilDate{2020, 4, 6}));
}

TEST(CivilDateTest, MonthKeyAndDateString) {
  TimeUs t = TimeFromCivil({2019, 12, 15});
  EXPECT_EQ(MonthKey(t), "2019-12");
  EXPECT_EQ(DateString(t), "2019-12-15");
  EXPECT_EQ(MonthKey(TimeFromCivil({2020, 2, 1})), "2020-02");
}

}  // namespace
}  // namespace clouddns::sim
