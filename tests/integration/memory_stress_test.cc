// Memory-bound streaming stress: 50k users simulated through the shard
// engine with only 1000 users admitted at a time. Asserts both the engine's
// own residency accounting and the process peak RSS, proving the streaming
// path really does run large populations in bounded memory instead of
// materialising the whole population.
//
// Expensive (~1 min on one core), so it self-skips unless ADPAD_RUN_SLOW=1
// and carries the `slow` ctest label.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "src/core/shard_engine.h"

namespace pad {
namespace {

bool SlowTestsEnabled() {
  const char* flag = std::getenv("ADPAD_RUN_SLOW");
  return flag != nullptr && std::strcmp(flag, "1") == 0;
}

TEST(MemoryStressTest, FiftyThousandUsersUnderResidencyBudget) {
  if (!SlowTestsEnabled()) {
    GTEST_SKIP() << "set ADPAD_RUN_SLOW=1 to run the memory stress test";
  }

  PadConfig config;
  config.population.num_users = 50000;
  config.population.horizon_s = 3.0 * kDay;
  config.warmup_days = 2;
  config.campaigns.arrivals_per_day = 75000.0;
  config.market_users = 1000;

  ShardEngineOptions options;
  options.threads = 1;
  options.max_resident_users = 1000;
  options.run_baseline = false;  // The PAD pipeline alone exercises residency.
  ASSERT_EQ("", ValidateShardOptions(config, options));

  const ShardedComparison result = RunShardedComparison(config, options);
  EXPECT_EQ(50, result.num_markets);
  EXPECT_EQ(50000, result.total_users);
  EXPECT_GT(result.total_sessions, 0);
  // The engine must never have admitted more than the budget.
  EXPECT_LE(result.peak_resident_users, options.max_resident_users);

  // Process-level ceiling. A monolithic 50k-user population is >3 GiB of
  // sessions; the streaming path with 1000 resident users stays far below.
  // The bound leaves headroom for the binary, gtest, and allocator slack.
  const double peak_rss_mib = PeakRssMib();
  ASSERT_GT(peak_rss_mib, 0.0);
  EXPECT_LT(peak_rss_mib, 768.0) << "streaming path exceeded its memory budget";
}

}  // namespace
}  // namespace pad
