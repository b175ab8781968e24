// Allocation-regression gate for the per-user hot path.
//
// A global operator-new hook counts every heap allocation made while the
// simulation kernel runs. The arena/scratch work bounded per-user heap
// traffic: workload expansion, feed events, the event queue, and the
// exchange/server inner loops no longer allocate per user or per event in
// steady state. This binary pins that down with two assertions:
//
//   1. an absolute budget — allocations per simulated user under a fixed
//      ceiling chosen ~2x above the current measured cost, so a reintroduced
//      per-event or per-call allocation (thousands per user) fails loudly
//      while normal drift does not;
//   2. a marginal budget — growing the population must cost less per added
//      user than the absolute budget (fixed setup costs excluded).
//
// This lives in its own binary (resume_stress_test pattern) because the
// operator-new override is process-global and must not leak into other test
// binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/units.h"
#include "src/core/event_log.h"
#include "src/core/pad_simulation.h"

namespace {

std::atomic<int64_t> g_news{0};

}  // namespace

// Count allocations, not bytes: the regression mode we guard against is
// per-user/per-event malloc churn, which shows up as call count.
void* operator new(size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

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
