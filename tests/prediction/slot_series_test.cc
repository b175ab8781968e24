#include "src/prediction/slot_series.h"

#include <gtest/gtest.h>

#include "src/common/units.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

SlotEvent Slot(double t) { return SlotEvent{0, 0, t}; }

TEST(SlotSeriesTest, BinsByWindow) {
  const std::vector<SlotEvent> slots = {Slot(0.0), Slot(10.0), Slot(3600.0), Slot(7300.0)};
  const SlotSeries series = BinSlots(slots, 3.0 * kHour, kHour);
  ASSERT_EQ(series.num_windows(), 3);
  EXPECT_EQ(series.counts[0], 2);
  EXPECT_EQ(series.counts[1], 1);
  EXPECT_EQ(series.counts[2], 1);
  EXPECT_EQ(series.TotalSlots(), 4);
}

TEST(SlotSeriesTest, DropsSlotsPastHorizon) {
  const std::vector<SlotEvent> slots = {Slot(0.0), Slot(2.0 * kHour + 1.0)};
  const SlotSeries series = BinSlots(slots, 2.0 * kHour, kHour);
  EXPECT_EQ(series.TotalSlots(), 1);
}

TEST(SlotSeriesTest, HorizonRoundsUpToWholeWindows) {
  const SlotSeries series = BinSlots({}, 90.0 * kMinute, kHour);
  EXPECT_EQ(series.num_windows(), 2);
}

TEST(SlotSeriesTest, WindowsPerDay) {
  EXPECT_EQ(BinSlots({}, kDay, kHour).WindowsPerDay(), 24);
  EXPECT_EQ(BinSlots({}, kDay, 3.0 * kHour).WindowsPerDay(), 8);
  EXPECT_EQ(BinSlots({}, kDay, kDay).WindowsPerDay(), 1);
}

TEST(SlotSeriesTest, WindowOfDayWraps) {
  const SlotSeries series = BinSlots({}, 3.0 * kDay, 6.0 * kHour);
  EXPECT_EQ(series.WindowOfDay(0), 0);
  EXPECT_EQ(series.WindowOfDay(3), 3);
  EXPECT_EQ(series.WindowOfDay(4), 0);
  EXPECT_EQ(series.WindowOfDay(11), 3);
}

TEST(SlotSeriesDeathTest, NonDividingWindowAborts) {
  const SlotSeries series = BinSlots({}, kDay, 7.0 * kHour);
  EXPECT_DEATH(series.WindowsPerDay(), "divide");
}

TEST(SlotSeriesTest, BoundarySlotGoesToLaterWindow) {
  const std::vector<SlotEvent> slots = {Slot(kHour)};
  const SlotSeries series = BinSlots(slots, 2.0 * kHour, kHour);
  EXPECT_EQ(series.counts[0], 0);
  EXPECT_EQ(series.counts[1], 1);
}

// The warm-up counter must give exactly the series that binning the
// expanded slot stream gives, for every user of a seeded population and for
// windows of several lengths.
TEST(SlotSeriesTest, CountSlotsMatchesBinnedExpansionOnSeededUsers) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationConfig config;
  config.num_users = 60;
  config.horizon_s = 10.0 * kDay;
  config.num_apps = catalog.size();
  config.seed = 42;
  const Population population = GeneratePopulation(config);
  WorkloadOptions slots_only;
  slots_only.on_demand_ads = false;
  slots_only.app_content = false;
  int64_t total = 0;
  for (const double window_s : {15.0 * kMinute, kHour, 3.0 * kHour}) {
    for (const UserTrace& user : population.users) {
      SCOPED_TRACE(testing::Message() << "user " << user.user_id << " window " << window_s);
      const SlotSeries binned =
          BinSlots(ExpandUser(catalog, user, slots_only).slots, population.horizon_s, window_s);
      const SlotSeries counted = CountSlots(catalog, user, population.horizon_s, window_s);
      EXPECT_EQ(counted.window_s, binned.window_s);
      EXPECT_EQ(counted.counts, binned.counts);
      total += counted.TotalSlots();
    }
  }
  EXPECT_GT(total, 0);
}

// Hand-counted edge cases: slots exactly on window boundaries, a session
// whose last slot falls inside the 1e-9 s end tolerance, and a slot exactly
// at the horizon (dropped).
TEST(SlotSeriesTest, CountSlotsAtWindowEdgesAndEndTolerance) {
  AppProfile app;
  app.app_id = 0;
  app.has_ads = true;
  app.ad_refresh_s = 30.0;
  const AppCatalog catalog({app});
  UserTrace user;
  // Slots at 3600, 3630, ..., 7200: 120 in window 1, the last one (exactly on
  // the next boundary) in window 2.
  user.sessions.push_back(Session{0, 0, kHour, kHour});
  // Slots at 10000, 10030 and 10060; the session ends 5e-10 s before the
  // last one, inside the tolerance.
  user.sessions.push_back(Session{0, 0, 10000.0, 60.0 - 5e-10});
  // Slots at 14370 (window 3) and 14400, exactly at the horizon.
  user.sessions.push_back(Session{0, 0, 14370.0, 30.0});
  const double horizon_s = 4.0 * kHour;
  ASSERT_LT(user.sessions[1].end_time(), 10060.0);

  const std::vector<int> expected = {0, 120, 4, 1};
  EXPECT_EQ(CountSlots(catalog, user, horizon_s, kHour).counts, expected);
  WorkloadOptions slots_only;
  slots_only.on_demand_ads = false;
  slots_only.app_content = false;
  EXPECT_EQ(BinSlots(ExpandUser(catalog, user, slots_only).slots, horizon_s, kHour).counts,
            expected);
}

}  // namespace
}  // namespace pad
