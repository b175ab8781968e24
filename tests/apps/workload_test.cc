#include "src/apps/workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "src/common/units.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

AppCatalog SingleAppCatalog(double refresh_s, double launch_bytes, double content_period_s,
                            double content_bytes) {
  AppProfile app;
  app.app_id = 0;
  app.name = "test_app";
  app.genre = "test";
  app.has_ads = true;
  app.ad_refresh_s = refresh_s;
  app.ad_bytes = 1000.0;
  app.launch_bytes = launch_bytes;
  app.content_period_s = content_period_s;
  app.content_bytes = content_bytes;
  app.local_power_w = 1.0;
  return AppCatalog({app});
}

UserTrace OneSession(double start, double duration) {
  UserTrace user;
  user.user_id = 7;
  user.sessions.push_back(Session{7, 0, start, duration});
  return user;
}

TEST(WorkloadTest, SlotsMatchAppProfileCount) {
  const AppCatalog catalog = SingleAppCatalog(30.0, 0.0, 0.0, 0.0);
  const UserTrace user = OneSession(100.0, 95.0);
  const auto slots = SlotsForUser(catalog, user);
  ASSERT_EQ(slots.size(), 4u);  // t = 100, 130, 160, 190.
  EXPECT_DOUBLE_EQ(slots[0].time, 100.0);
  EXPECT_DOUBLE_EQ(slots[3].time, 190.0);
  EXPECT_EQ(slots[0].user_id, 7);
  EXPECT_EQ(slots[0].app_id, 0);
}

TEST(WorkloadTest, OnDemandAdsEmitOneFetchPerSlot) {
  const AppCatalog catalog = SingleAppCatalog(30.0, 0.0, 0.0, 0.0);
  const UserTrace user = OneSession(0.0, 60.0);
  WorkloadOptions options;
  options.on_demand_ads = true;
  options.app_content = false;
  const UserWorkload workload = ExpandUser(catalog, user, options);
  EXPECT_EQ(workload.slots.size(), 3u);
  ASSERT_EQ(workload.transfers.size(), 3u);
  for (const Transfer& transfer : workload.transfers) {
    EXPECT_EQ(transfer.category, TrafficCategory::kAdFetch);
    EXPECT_EQ(transfer.direction, Direction::kDownlink);
    EXPECT_DOUBLE_EQ(transfer.bytes, 1000.0);
  }
}

TEST(WorkloadTest, NoOnDemandAdsStillEmitsSlots) {
  const AppCatalog catalog = SingleAppCatalog(30.0, 0.0, 0.0, 0.0);
  const UserTrace user = OneSession(0.0, 60.0);
  WorkloadOptions options;
  options.on_demand_ads = false;
  options.app_content = false;
  const UserWorkload workload = ExpandUser(catalog, user, options);
  EXPECT_EQ(workload.slots.size(), 3u);
  EXPECT_TRUE(workload.transfers.empty());
}

TEST(WorkloadTest, LaunchAndPeriodicContent) {
  const AppCatalog catalog = SingleAppCatalog(1e9, 5000.0, 60.0, 2000.0);
  const UserTrace user = OneSession(0.0, 150.0);
  WorkloadOptions options;
  options.on_demand_ads = false;
  options.app_content = true;
  const UserWorkload workload = ExpandUser(catalog, user, options);
  // Launch at 0, periodic at 60 and 120.
  ASSERT_EQ(workload.transfers.size(), 3u);
  EXPECT_DOUBLE_EQ(workload.transfers[0].request_time, 0.0);
  EXPECT_DOUBLE_EQ(workload.transfers[0].bytes, 5000.0);
  EXPECT_DOUBLE_EQ(workload.transfers[1].request_time, 60.0);
  EXPECT_DOUBLE_EQ(workload.transfers[2].request_time, 120.0);
  for (const Transfer& transfer : workload.transfers) {
    EXPECT_EQ(transfer.category, TrafficCategory::kAppContent);
  }
}

TEST(WorkloadTest, ForegroundTimeAndLocalEnergy) {
  const AppCatalog catalog = SingleAppCatalog(30.0, 0.0, 0.0, 0.0);
  UserTrace user = OneSession(0.0, 100.0);
  user.sessions.push_back(Session{7, 0, 500.0, 50.0});
  WorkloadOptions options;
  const UserWorkload workload = ExpandUser(catalog, user, options);
  EXPECT_DOUBLE_EQ(workload.foreground_s, 150.0);
  EXPECT_DOUBLE_EQ(workload.local_energy_j, 150.0);  // 1 W local power.
}

TEST(WorkloadTest, TransfersAndSlotsSorted) {
  PopulationConfig config;
  config.num_users = 10;
  config.horizon_s = 2.0 * kDay;
  config.num_apps = 15;
  const Population population = GeneratePopulation(config);
  const AppCatalog catalog = AppCatalog::TopFifteen();
  WorkloadOptions options;
  for (const UserWorkload& workload : ExpandPopulation(catalog, population, options)) {
    for (size_t i = 1; i < workload.transfers.size(); ++i) {
      EXPECT_LE(workload.transfers[i - 1].request_time, workload.transfers[i].request_time);
    }
    for (size_t i = 1; i < workload.slots.size(); ++i) {
      EXPECT_LE(workload.slots[i - 1].time, workload.slots[i].time);
    }
  }
}

TEST(WorkloadTest, SlotCountConsistentWithProfileFormula) {
  PopulationConfig config;
  config.num_users = 20;
  config.horizon_s = 3.0 * kDay;
  config.num_apps = 15;
  const Population population = GeneratePopulation(config);
  const AppCatalog catalog = AppCatalog::TopFifteen();
  for (const UserTrace& user : population.users) {
    int64_t expected = 0;
    for (const Session& session : user.sessions) {
      expected += catalog.Get(session.app_id).SlotsInSession(session.duration_s);
    }
    EXPECT_EQ(static_cast<int64_t>(SlotsForUser(catalog, user).size()), expected);
  }
}

TEST(WorkloadTest, PopulationExpansionPreservesUserIds) {
  PopulationConfig config;
  config.num_users = 5;
  config.horizon_s = kDay;
  config.num_apps = 15;
  const Population population = GeneratePopulation(config);
  const AppCatalog catalog = AppCatalog::TopFifteen();
  WorkloadOptions options;
  const auto workloads = ExpandPopulation(catalog, population, options);
  ASSERT_EQ(workloads.size(), 5u);
  for (size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].user_id, population.users[i].user_id);
  }
}

// Transfers that differ in any one shape field get distinct kinds, and
// each kind rebuilds its transfer bit for bit at any request time.
TEST(TransferShapesTest, EveryFieldSeparatesKindsAndRebuildsBitIdentical) {
  const Transfer base{.request_time = 5.0,
                      .bytes = 20.0 * 1024,
                      .direction = Direction::kDownlink,
                      .category = TrafficCategory::kAppContent};
  Transfer uplink = base;
  uplink.direction = Direction::kUplink;
  Transfer ad_fetch = base;
  ad_fetch.category = TrafficCategory::kAdFetch;
  Transfer fewer_bytes = base;
  fewer_bytes.bytes = std::nextafter(base.bytes, 0.0);
  Transfer later = base;
  later.request_time = 99.0;
  const std::vector<Transfer> transfers = {base, uplink, ad_fetch, fewer_bytes, later};

  TransferShapes shapes;
  std::vector<uint32_t> kinds;
  for (const Transfer& transfer : transfers) {
    kinds.push_back(shapes.KindOf(transfer));
  }
  EXPECT_EQ(kinds, (std::vector<uint32_t>{1, 2, 3, 4, 1}));
  for (size_t i = 0; i < transfers.size(); ++i) {
    const Transfer rebuilt = shapes.At(kinds[i], transfers[i].request_time);
    EXPECT_EQ(std::bit_cast<uint64_t>(rebuilt.request_time),
              std::bit_cast<uint64_t>(transfers[i].request_time));
    EXPECT_EQ(std::bit_cast<uint64_t>(rebuilt.bytes), std::bit_cast<uint64_t>(transfers[i].bytes));
    EXPECT_EQ(rebuilt.direction, transfers[i].direction);
    EXPECT_EQ(rebuilt.category, transfers[i].category);
  }
}

}  // namespace
}  // namespace pad
