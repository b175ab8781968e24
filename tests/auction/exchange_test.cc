#include "src/auction/exchange.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace pad {
namespace {

Campaign MakeCampaign(int64_t id, double arrival, double cpm, int64_t target,
                      double deadline = 3600.0) {
  Campaign campaign;
  campaign.campaign_id = id;
  campaign.arrival_time = arrival;
  campaign.bid_per_impression = cpm / 1000.0;
  campaign.target_impressions = target;
  campaign.display_deadline_s = deadline;
  return campaign;
}

TEST(ExchangeTest, HighestBidderBuysFirst) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 0.0, 1.0, 100),
                                       MakeCampaign(2, 0.0, 5.0, 100)});
  const auto sold = exchange.SellSlots(10.0, 3);
  ASSERT_EQ(sold.size(), 3u);
  for (const SoldImpression& impression : sold) {
    EXPECT_EQ(impression.campaign_id, 2);
    // Second price: the $1 CPM runner-up sets the clearing price.
    EXPECT_DOUBLE_EQ(impression.price, 1.0 / 1000.0);
    EXPECT_DOUBLE_EQ(impression.sale_time, 10.0);
    EXPECT_DOUBLE_EQ(impression.deadline, 10.0 + 3600.0);
  }
}

TEST(ExchangeTest, FallsToNextBidderWhenExhausted) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 0.0, 1.0, 100),
                                       MakeCampaign(2, 0.0, 5.0, 2)});
  const auto sold = exchange.SellSlots(0.0, 5);
  ASSERT_EQ(sold.size(), 5u);
  EXPECT_EQ(sold[0].campaign_id, 2);
  EXPECT_EQ(sold[1].campaign_id, 2);
  EXPECT_EQ(sold[2].campaign_id, 1);
  // Once campaign 2 is done, campaign 1 is alone and pays the reserve.
  EXPECT_DOUBLE_EQ(sold[2].price, ExchangeConfig{}.reserve_price);
}

TEST(ExchangeTest, DemandExhaustionStopsSales) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 0.0, 1.0, 3)});
  const auto sold = exchange.SellSlots(0.0, 10);
  EXPECT_EQ(sold.size(), 3u);
  EXPECT_EQ(exchange.open_demand(), 0);
  EXPECT_EQ(exchange.active_campaigns(), 0);
  EXPECT_TRUE(exchange.SellSlots(1.0, 5).empty());
}

TEST(ExchangeTest, CampaignsAdmittedAtArrivalTime) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 100.0, 1.0, 10)});
  EXPECT_TRUE(exchange.SellSlots(50.0, 5).empty());
  const auto sold = exchange.SellSlots(100.0, 5);
  EXPECT_EQ(sold.size(), 5u);
}

TEST(ExchangeTest, BidsBelowReserveNeverSell) {
  ExchangeConfig config;
  config.reserve_price = 0.01;  // $10 CPM floor.
  Exchange exchange(config, {MakeCampaign(1, 0.0, 1.0, 10)});
  EXPECT_TRUE(exchange.SellSlots(0.0, 5).empty());
  // Demand remains open: the campaign is not consumed.
  EXPECT_EQ(exchange.open_demand(), 10);
}

TEST(ExchangeTest, ImpressionIdsUniqueAndSalesLedgered) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 0.0, 1.0, 100)});
  const auto first = exchange.SellSlots(0.0, 3);
  const auto second = exchange.SellSlots(1.0, 3);
  std::vector<int64_t> ids;
  for (const auto& impression : first) {
    ids.push_back(impression.impression_id);
  }
  for (const auto& impression : second) {
    ids.push_back(impression.impression_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  EXPECT_EQ(exchange.ledger().totals().sold, 6);
}

TEST(ExchangeTest, EqualBidsSplitByCampaignIdOrder) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(5, 0.0, 2.0, 2),
                                       MakeCampaign(3, 0.0, 2.0, 2)});
  const auto sold = exchange.SellSlots(0.0, 4);
  ASSERT_EQ(sold.size(), 4u);
  // Lower campaign id wins ties first (FIFO by id).
  EXPECT_EQ(sold[0].campaign_id, 3);
  EXPECT_EQ(sold[1].campaign_id, 3);
  EXPECT_EQ(sold[2].campaign_id, 5);
}

TEST(ExchangeTest, SellZeroSlotsIsNoOp) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 0.0, 1.0, 10)});
  EXPECT_TRUE(exchange.SellSlots(0.0, 0).empty());
  EXPECT_EQ(exchange.open_demand(), 10);
}

TEST(ExchangeTest, RevenueNonDecreasingInDemand) {
  // More campaigns competing -> weakly higher clearing prices.
  std::vector<Campaign> one = {MakeCampaign(1, 0.0, 2.0, 50)};
  std::vector<Campaign> two = {MakeCampaign(1, 0.0, 2.0, 50), MakeCampaign(2, 0.0, 1.5, 50)};
  Exchange thin(ExchangeConfig{}, one);
  Exchange thick(ExchangeConfig{}, two);
  double thin_revenue = 0.0;
  double thick_revenue = 0.0;
  for (const auto& impression : thin.SellSlots(0.0, 20)) {
    thin_revenue += impression.price;
  }
  for (const auto& impression : thick.SellSlots(0.0, 20)) {
    thick_revenue += impression.price;
  }
  EXPECT_GT(thick_revenue, thin_revenue);
}

// Bill-at-sale must be the sale-then-display pair it replaces, bit for bit:
// the same slots sell, the same campaigns retire, and every ledger total
// matches, billed revenue summed in the same order. Neither path may leave
// an impression open; only the pair queues ids for invalidation.
TEST(ExchangeTest, SellAndDisplaySlotMatchesSellThenDisplay) {
  CampaignStreamConfig stream;
  stream.horizon_s = 3.0 * kDay;
  stream.arrivals_per_day = 150.0;
  stream.target_mu = 4.0;  // Small targets, so campaigns exhaust and retire.
  stream.num_segments = 4;
  stream.targeted_fraction = 0.5;
  stream.budgeted_fraction = 0.5;
  stream.seed = 11;
  const std::vector<Campaign> campaigns = GenerateCampaignStream(stream);
  ExchangeConfig config;
  config.num_segments = stream.num_segments;
  Exchange reference(config, campaigns);
  Exchange billed(config, campaigns);

  Rng rng(5);
  double t = 0.0;
  int64_t unsold = 0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.Uniform(0.0, 25.0);
    const int segment = static_cast<int>(rng.UniformInt(0, stream.num_segments - 1));
    const std::vector<SoldImpression>& sold = reference.SellSlots(t, 1, segment);
    if (!sold.empty()) {
      ASSERT_TRUE(reference.ledger().RecordDisplay(sold.front().impression_id, t));
    } else {
      ++unsold;
    }
    ASSERT_EQ(billed.SellAndDisplaySlot(t, segment), !sold.empty()) << "slot " << i;
    ASSERT_EQ(billed.open_demand(), reference.open_demand()) << "slot " << i;
    ASSERT_EQ(billed.active_campaigns(), reference.active_campaigns()) << "slot " << i;
  }
  reference.ledger().ExpireDeadlines(t + kDay);
  billed.ledger().ExpireDeadlines(t + kDay);

  const LedgerTotals& want = reference.ledger().totals();
  const LedgerTotals& got = billed.ledger().totals();
  EXPECT_GT(want.billed, 1000);
  EXPECT_GT(unsold, 0);
  EXPECT_EQ(got.sold, want.sold);
  EXPECT_EQ(got.billed, want.billed);
  EXPECT_EQ(got.violated, want.violated);
  EXPECT_EQ(got.excess_displays, want.excess_displays);
  EXPECT_EQ(got.displays, want.displays);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.billed_revenue),
            std::bit_cast<uint64_t>(want.billed_revenue));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.violated_value),
            std::bit_cast<uint64_t>(want.violated_value));
  EXPECT_EQ(reference.ledger().open_impressions(), 0);
  EXPECT_EQ(billed.ledger().open_impressions(), 0);
  EXPECT_EQ(static_cast<int64_t>(reference.ledger().TakeRecentlyBilled().size()), want.billed);
  EXPECT_TRUE(billed.ledger().TakeRecentlyBilled().empty());
}

TEST(ExchangeDeathTest, TimeMustBeMonotonic) {
  Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 0.0, 1.0, 10)});
  exchange.SellSlots(100.0, 1);
  EXPECT_DEATH(exchange.SellSlots(50.0, 1), "non-decreasing");
}

TEST(ExchangeDeathTest, UnsortedCampaignsAbort) {
  EXPECT_DEATH(Exchange exchange(ExchangeConfig{}, {MakeCampaign(1, 100.0, 1.0, 10),
                                                    MakeCampaign(2, 50.0, 1.0, 10)}),
               "sorted");
}

}  // namespace
}  // namespace pad
