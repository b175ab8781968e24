// Allocation-regression gate for the per-user hot path.
//
// A global operator-new hook counts every heap allocation made while the
// simulation kernel runs, and the bytes live on the heap with their
// high-water mark. The arena/scratch work bounded per-user heap traffic:
// workload expansion, feed events, the event queue, and the exchange/server
// inner loops no longer allocate per user or per event in steady state. This
// binary pins that down with three assertions:
//
//   1. an absolute budget — allocations per simulated user under a fixed
//      ceiling chosen ~2x above the current measured cost, so a reintroduced
//      per-event or per-call allocation (thousands per user) fails loudly
//      while normal drift does not;
//   2. a marginal budget — growing the population must cost less per added
//      user than the absolute budget (fixed setup costs excluded);
//   3. a footprint budget — the peak live heap of one market, which decides
//      how many markets a box can run at once.
//
// This lives in its own binary (resume_stress_test pattern) because the
// operator-new override is process-global and must not leak into other test
// binaries.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/common/units.h"
#include "src/core/event_log.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/trace/generator.h"

namespace {

std::atomic<int64_t> g_news{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

// Two regressions are guarded here: per-user/per-event malloc churn, which
// shows up as a call count, and a market holding more than it needs at once,
// which shows up as the high-water mark of live bytes. Bytes are the usable
// size of each block, the heap's real cost, read again on delete.
void* CountNew(void* p) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (p != nullptr) {
    const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live = g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_live_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void CountDelete(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

void* operator new(size_t size) {
  if (void* p = CountNew(std::malloc(size))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountNew(std::malloc(size));
}

void operator delete(void* p) noexcept { CountDelete(p); }
void operator delete(void* p, size_t) noexcept { CountDelete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountDelete(p); }

namespace pad {
namespace {

PadConfig UsersConfig(int num_users) {
  PadConfig config = QuickConfig();  // 10 days, 1 warmup week.
  config.seed = 1234;
  config.population.seed = 42;
  config.campaigns.seed = 7;
  config.population.num_users = num_users;
  return config;
}

// Heap allocations consumed by the full PAD kernel (input generation
// excluded — it is not the hot path under test).
int64_t PadKernelAllocations(const PadConfig& config) {
  const SimContext context = MakeSimContext(config);
  const SimInputs inputs = GenerateInputs(context);
  const int64_t before = g_news.load(std::memory_order_relaxed);
  const PadRunResult result = RunPad(context, inputs);
  const int64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_GT(result.service.slots, 0);
  return after - before;
}

// Measured: the optimized PAD kernel costs ~1830 allocations/user at 40
// users (~1512 marginal), down from ~5887 (~4980 marginal) before the
// arena/scratch/small-vector work. The baseline kernel costs ~13/user, down
// from ~507 when every sold slot opened (and at once closed) a ledger map
// node, and ~1521 before that; it now bills each sale as it displays it. The
// PAD budget sits between its two regimes and the baseline budget about
// twice above its measurement, so a reintroduced per-event or per-call
// allocation fails while normal drift does not.
constexpr int64_t kMaxPadAllocsPerUser = 2500;
constexpr int64_t kMaxBaselineAllocsPerUser = 30;

TEST(AllocRegressionTest, PadKernelAllocationsPerUserUnderBudget) {
  const int kUsers = 40;
  const int64_t allocs = PadKernelAllocations(UsersConfig(kUsers));
  const int64_t per_user = allocs / kUsers;
  EXPECT_LE(per_user, kMaxPadAllocsPerUser)
      << allocs << " allocations for " << kUsers << " users";
}

TEST(AllocRegressionTest, MarginalUserCostUnderBudget) {
  const int kSmall = 40;
  const int kLarge = 80;
  const int64_t small = PadKernelAllocations(UsersConfig(kSmall));
  const int64_t large = PadKernelAllocations(UsersConfig(kLarge));
  // Marginal cost of the added users, setup excluded. A reintroduced
  // per-event allocation scales with users and lands far above the budget.
  const int64_t marginal = (large - small) / (kLarge - kSmall);
  EXPECT_LE(marginal, kMaxPadAllocsPerUser)
      << "marginal " << marginal << " allocs/user (" << small << " @ " << kSmall << " users, "
      << large << " @ " << kLarge << " users)";
}

// Measured: one 400-user, 9-day market (baseline, PAD, event digest) peaks
// at 8.3 MB of live heap above what was live when it started. It peaked at
// 12.9 MB while PAD kept every session and a copy of the campaign stream
// until the market ended and the baseline's slot vector grew by doubling.
// The budget sits 1.25x above the measurement, well below the old peak.
constexpr int64_t kMaxMarketPeakHeapBytes = 10'400'000;

TEST(AllocRegressionTest, MarketPeakHeapUnderBudget) {
  PadConfig config = UsersConfig(400);
  config.population.horizon_s = 9.0 * kDay;
  config.campaigns.arrivals_per_day = 600.0;
  const PadConfig aligned = AlignInputsConfig(config);
  const std::vector<int64_t> boundaries = MarketBoundaries(aligned.population.num_users, 0);
  PopulationStream stream(aligned.population);
  const int64_t at_entry = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(at_entry, std::memory_order_relaxed);
  const MarketRecord record = SimulateMarket(aligned, boundaries, /*market=*/0, stream,
                                             /*run_baseline=*/true, /*event_digests=*/true);
  const int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed) - at_entry;
  EXPECT_GT(record.pad.service.slots, 0);
  EXPECT_LE(peak, kMaxMarketPeakHeapBytes) << peak << " bytes of live heap at the market's peak";
}

TEST(AllocRegressionTest, BaselineKernelAllocationsPerUserUnderBudget) {
  const PadConfig config = UsersConfig(40);
  const SimContext context = MakeSimContext(config);
  const SimInputs inputs = GenerateInputs(context);
  const int64_t before = g_news.load(std::memory_order_relaxed);
  const BaselineResult result = RunBaseline(context, inputs);
  const int64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_GT(result.service.slots, 0);
  EXPECT_LE((after - before) / 40, kMaxBaselineAllocsPerUser);
}

// The shard engine hashes each market's event stream through a digest-only
// log; recording into it must never touch the heap, however long the run.
TEST(AllocRegressionTest, DigestOnlyEventLogRecordsWithoutAllocating) {
  constexpr int kEvents = 100000;
  EventLog log = EventLog::DigestOnly();
  const int64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < kEvents; ++i) {
    const double t = 0.5 * i;
    switch (i % 5) {
      case 0:
        log.OnSale(t, i, 100, 0.002);
        break;
      case 1:
        log.OnDispatch(t, i, 100, i % 40, /*rescue=*/i % 3 == 0);
        break;
      case 2:
        log.OnBilledDisplay(t, i, 100, 0.002);
        break;
      case 3:
        log.OnExcessDisplay(t, i);
        break;
      default:
        log.OnFault(t, SimEventType::kFetchFailure, i % 40);
        break;
    }
  }
  const int64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
  int64_t recorded = 0;
  for (int t = 0; t < kNumSimEventTypes; ++t) {
    recorded += log.CountOf(static_cast<SimEventType>(t));
  }
  EXPECT_EQ(recorded, kEvents);
  EXPECT_TRUE(log.events().empty());
}

}  // namespace
}  // namespace pad
