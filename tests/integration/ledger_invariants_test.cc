// Property test: ledger accounting invariants hold under random operation
// sequences (sales, replica displays at random times, periodic expiry).
#include <gtest/gtest.h>

#include <vector>

#include "src/auction/ledger.h"
#include "src/common/rng.h"

namespace pad {
namespace {

// gtest names each case by the raw bytes of its parameter, so the struct must
// have no padding: uninitialised padding bytes made the case names differ from
// one build to the next.
struct LedgerFuzzCase {
  uint64_t seed;
  int64_t operations;
  double deadline_s;
};
static_assert(sizeof(LedgerFuzzCase) == 24, "LedgerFuzzCase must not have padding");

class LedgerFuzzTest : public ::testing::TestWithParam<LedgerFuzzCase> {};

TEST_P(LedgerFuzzTest, InvariantsHold) {
  const LedgerFuzzCase fuzz = GetParam();
  Rng rng(fuzz.seed);
  RevenueLedger ledger;

  std::vector<SoldImpression> sold;
  double now = 0.0;
  int64_t displays_recorded = 0;
  for (int op = 0; op < fuzz.operations; ++op) {
    now += rng.Exponential(1.0 / 30.0);  // ~30 s between operations.
    const double pick = rng.NextDouble();
    if (pick < 0.4 || sold.empty()) {
      SoldImpression impression;
      impression.impression_id = static_cast<int64_t>(sold.size()) + 1;
      impression.campaign_id = rng.UniformInt(1, 5);
      impression.price = rng.Uniform(0.0, 0.01);
      impression.sale_time = now;
      impression.deadline = now + fuzz.deadline_s * rng.Uniform(0.2, 1.0);
      ledger.RecordSale(impression);
      sold.push_back(impression);
    } else if (pick < 0.85) {
      // Display a random (possibly repeated, possibly late) impression.
      const auto& impression = sold[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(sold.size()) - 1))];
      ledger.RecordDisplay(impression.impression_id, now);
      ++displays_recorded;
    } else if (pick < 0.95) {
      ledger.ExpireDeadlines(now);
    } else {
      ledger.RecordUnsoldDisplay();
      ++displays_recorded;
    }

    // Invariants that must hold at every step:
    const LedgerTotals& totals = ledger.totals();
    ASSERT_EQ(totals.sold, static_cast<int64_t>(sold.size()));
    ASSERT_EQ(totals.displays, displays_recorded);
    ASSERT_EQ(totals.displays, totals.billed + totals.excess_displays);
    ASSERT_LE(totals.billed + totals.violated, totals.sold);
    ASSERT_EQ(totals.sold - totals.billed - totals.violated, ledger.open_impressions());
    ASSERT_GE(totals.billed_revenue, 0.0);
    ASSERT_GE(totals.SlaViolationRate(), 0.0);
    ASSERT_LE(totals.SlaViolationRate(), 1.0);
    ASSERT_GE(totals.RevenueLossRate(), 0.0);
    ASSERT_LE(totals.RevenueLossRate(), 1.0);
  }

  // Closing sweep: everything resolves.
  ledger.ExpireDeadlines(1e18);
  const LedgerTotals& totals = ledger.totals();
  EXPECT_EQ(totals.billed + totals.violated, totals.sold);
  EXPECT_EQ(ledger.open_impressions(), 0);
}

INSTANTIATE_TEST_SUITE_P(Sequences, LedgerFuzzTest,
                         ::testing::Values(LedgerFuzzCase{1, 500, 3600.0},
                                           LedgerFuzzCase{2, 500, 60.0},
                                           LedgerFuzzCase{3, 2000, 600.0},
                                           LedgerFuzzCase{4, 2000, 7200.0},
                                           LedgerFuzzCase{5, 100, 1.0},
                                           LedgerFuzzCase{6, 3000, 1800.0}));

}  // namespace
}  // namespace pad
