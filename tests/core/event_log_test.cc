#include "src/core/event_log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <vector>

#include "src/common/csv.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

TEST(EventLogTest, RecordsAndCounts) {
  EventLog log;
  log.OnSale(10.0, 1, 100, 0.002);
  log.OnDispatch(10.0, 1, 100, 7, /*rescue=*/false);
  log.OnDispatch(11.0, 1, 100, 8, /*rescue=*/true);
  log.OnBilledDisplay(20.0, 1, 100, 0.002);
  log.OnExcessDisplay(25.0, 1);
  log.OnViolation(30.0, 2, 100, 0.001);

  EXPECT_EQ(log.events().size(), 6u);
  EXPECT_EQ(log.CountOf(SimEventType::kSale), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kDispatch), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kRescue), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kBilledDisplay), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kExcessDisplay), 1);
  EXPECT_EQ(log.CountOf(SimEventType::kViolation), 1);
}

TEST(EventLogTest, CsvExportRoundTrips) {
  EventLog log;
  log.OnSale(10.5, 1, 100, 0.002);
  log.OnBilledDisplay(20.0, 1, 100, 0.002);
  std::ostringstream out;
  log.WriteCsv(out);
  const CsvTable table = ParseCsv(out.str());
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][table.ColumnIndex("type")], "sale");
  EXPECT_DOUBLE_EQ(std::stod(table.rows[0][table.ColumnIndex("time")]), 10.5);
  EXPECT_EQ(table.rows[1][table.ColumnIndex("type")], "billed_display");
}

TEST(EventLogTest, ByHourOfDayBuckets) {
  EventLog log;
  log.OnViolation(2.5 * kHour, 1, 100, 0.0);
  log.OnViolation(kDay + 2.9 * kHour, 2, 100, 0.0);
  log.OnViolation(15.0 * kHour, 3, 100, 0.0);
  const auto histogram = log.ByHourOfDay(SimEventType::kViolation);
  EXPECT_EQ(histogram[2], 2);
  EXPECT_EQ(histogram[15], 1);
  EXPECT_EQ(histogram[0], 0);
}

TEST(EventLogTest, PerCampaignOutcomes) {
  EventLog log;
  log.OnSale(1.0, 1, 100, 0.002);
  log.OnSale(2.0, 2, 100, 0.002);
  log.OnSale(3.0, 3, 200, 0.001);
  log.OnBilledDisplay(5.0, 1, 100, 0.002);
  log.OnViolation(10.0, 2, 100, 0.002);
  const auto outcomes = log.PerCampaign();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes.at(100).sold, 2);
  EXPECT_EQ(outcomes.at(100).billed, 1);
  EXPECT_EQ(outcomes.at(100).violated, 1);
  EXPECT_DOUBLE_EQ(outcomes.at(100).FillRate(), 0.5);
  EXPECT_DOUBLE_EQ(outcomes.at(100).revenue, 0.002);
  EXPECT_EQ(outcomes.at(200).sold, 1);
  EXPECT_DOUBLE_EQ(outcomes.at(200).FillRate(), 0.0);
}

// FNV-1a written out independently of EventLog: per event, the 8
// little-endian bytes of time, type, impression_id, campaign_id, client_id
// sign-extended to 64 bits, and value, in that order.
uint64_t ReferenceDigest(std::span<const SimEvent> events) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto fold = [&hash](uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xffull)) * 0x100000001b3ull;
    }
  };
  for (const SimEvent& event : events) {
    fold(std::bit_cast<uint64_t>(event.time));
    fold(static_cast<uint64_t>(event.type));
    fold(static_cast<uint64_t>(event.impression_id));
    fold(static_cast<uint64_t>(event.campaign_id));
    fold(static_cast<uint64_t>(int64_t{event.client_id}));
    fold(std::bit_cast<uint64_t>(event.value));
  }
  return hash;
}

// Feeds every hook, with negative client ids (market events carry -1, and
// a fault may carry any int), negative zero and a negative impression id.
void FeedEveryHook(EventLog& log) {
  log.OnSale(10.0, 1, 100, 0.002);
  log.OnDispatch(10.0, 1, 100, 7, /*rescue=*/false);
  log.OnDispatch(11.0, 1, 100, 8, /*rescue=*/true);
  log.OnBilledDisplay(20.0, 1, 100, 0.002);
  log.OnExcessDisplay(25.0, 1);
  log.OnViolation(30.0, -2, 100, -0.0);
  log.OnFault(31.5, SimEventType::kReportDrop, 3);
  log.OnFault(32.0, SimEventType::kFetchFailure, -5);
  log.OnFault(33.0, SimEventType::kSyncMiss, 0);
  log.OnFault(34.0, SimEventType::kOfflineEpoch, 2147483647);
}

TEST(EventLogTest, DigestOnlyLogMatchesRetainingLogAndReferenceFold) {
  EventLog retaining;
  EventLog digest_only = EventLog::DigestOnly();
  const uint64_t empty = retaining.Digest();
  EXPECT_EQ(empty, ReferenceDigest({}));
  EXPECT_EQ(digest_only.Digest(), empty);

  FeedEveryHook(retaining);
  FeedEveryHook(digest_only);
  ASSERT_EQ(retaining.events().size(), 10u);
  EXPECT_TRUE(digest_only.events().empty());
  EXPECT_NE(retaining.Digest(), empty);
  EXPECT_EQ(retaining.Digest(), ReferenceDigest(retaining.events()));
  EXPECT_EQ(digest_only.Digest(), retaining.Digest());
  for (int t = 0; t < kNumSimEventTypes; ++t) {
    const SimEventType type = static_cast<SimEventType>(t);
    EXPECT_EQ(digest_only.CountOf(type), retaining.CountOf(type)) << SimEventTypeName(type);
  }

  // A zero-extended client id would hash differently: the fold pins the
  // sign extension.
  std::vector<SimEvent> zero_extended(retaining.events().begin(), retaining.events().end());
  EXPECT_EQ(zero_extended.front().client_id, -1);
  zero_extended.front().client_id = 0;
  EXPECT_NE(ReferenceDigest(zero_extended), retaining.Digest());
}

TEST(EventLogIntegrationTest, DigestOnlyLogMatchesRetainingLogOverARun) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  config.faults.report_drop_rate = 0.05;
  config.faults.fetch_failure_rate = 0.05;
  config.faults.offline_rate = 0.05;
  const SimInputs inputs = GenerateInputs(config);
  EventLog retaining;
  EventLog digest_only = EventLog::DigestOnly();
  const PadRunResult with_events = RunPad(config, inputs, &retaining);
  const PadRunResult digest_run = RunPad(config, inputs, &digest_only);

  EXPECT_EQ(MetricsDigest(digest_run), MetricsDigest(with_events));
  EXPECT_GT(retaining.events().size(), 1000u);
  EXPECT_TRUE(digest_only.events().empty());
  EXPECT_EQ(retaining.Digest(), ReferenceDigest(retaining.events()));
  EXPECT_EQ(digest_only.Digest(), retaining.Digest());
  for (int t = 0; t < kNumSimEventTypes; ++t) {
    const SimEventType type = static_cast<SimEventType>(t);
    EXPECT_EQ(digest_only.CountOf(type), retaining.CountOf(type)) << SimEventTypeName(type);
  }
  EXPECT_GT(retaining.CountOf(SimEventType::kFetchFailure), 0);
}

TEST(EventLogIntegrationTest, LogAgreesWithLedgerTotals) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  const SimInputs inputs = GenerateInputs(config);
  EventLog log;
  const PadRunResult pad = RunPad(config, inputs, &log);

  EXPECT_EQ(log.CountOf(SimEventType::kSale), pad.ledger.sold);
  EXPECT_EQ(log.CountOf(SimEventType::kBilledDisplay), pad.ledger.billed);
  EXPECT_EQ(log.CountOf(SimEventType::kExcessDisplay), pad.ledger.excess_displays);
  EXPECT_EQ(log.CountOf(SimEventType::kViolation), pad.ledger.violated);
  EXPECT_EQ(log.CountOf(SimEventType::kDispatch) + log.CountOf(SimEventType::kRescue),
            pad.impressions_dispatched);

  // Revenue reconstructed from billed events matches the ledger.
  double revenue = 0.0;
  for (const SimEvent& event : log.events()) {
    if (event.type == SimEventType::kBilledDisplay) {
      revenue += event.value;
    }
  }
  EXPECT_NEAR(revenue, pad.ledger.billed_revenue, 1e-9);
}

TEST(EventLogIntegrationTest, RescueEventsMatchServerCounter) {
  PadConfig config = QuickConfig();
  config.population.num_users = 40;
  config.rescue_threshold = 1.0 - 1e-12;  // Rescue aggressively.
  const SimInputs inputs = GenerateInputs(config);
  EventLog log;
  (void)RunPad(config, inputs, &log);
  EXPECT_GT(log.CountOf(SimEventType::kRescue), 0);
}

}  // namespace
}  // namespace pad
