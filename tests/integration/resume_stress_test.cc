// Resume stress at population scale: a 50k-user streaming run is interrupted
// mid-flight (graceful stop, as a SIGTERM would trigger), then resumed from
// its checkpoint journal under a different lane/thread configuration, and
// must land byte-identical on an uninterrupted golden run. This is the
// crash-recovery contract at the population scale the journal exists for,
// with the residency gate engaged on both sides.
//
// Expensive (a few minutes on one core), so it self-skips unless
// ADPAD_RUN_SLOW=1 and carries the `slow` ctest label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

bool SlowTestsEnabled() {
  const char* flag = std::getenv("ADPAD_RUN_SLOW");
  return flag != nullptr && std::strcmp(flag, "1") == 0;
}

TEST(ResumeStressTest, FiftyThousandUsersInterruptedAndResumedByteIdentical) {
  if (!SlowTestsEnabled()) {
    GTEST_SKIP() << "set ADPAD_RUN_SLOW=1 to run the resume stress test";
  }

  PadConfig config;
  config.population.num_users = 50000;
  config.population.horizon_s = 3.0 * kDay;
  config.warmup_days = 2;
  config.campaigns.arrivals_per_day = 75000.0;
  config.market_users = 1000;

  ShardEngineOptions golden_options;
  golden_options.threads = 2;
  golden_options.max_resident_users = 4000;
  golden_options.run_baseline = false;
  StatusOr<ShardedComparison> golden_or = RunShardedResumable(config, golden_options);
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().ToString();
  const ShardedComparison& golden = *golden_or;
  ASSERT_EQ(50, golden.num_markets);

  const std::string path = testing::TempDir() + "resume_stress_50k.ckpt";
  std::remove(path.c_str());

  // Interrupt roughly mid-run: the stopper waits for a fraction of the
  // golden wall time, so a healthy chunk of markets is journaled and a
  // healthy chunk is left to the resume.
  std::atomic<bool> stop{false};
  ShardEngineOptions first_leg = golden_options;
  first_leg.checkpoint_path = path;
  first_leg.stop_requested = &stop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::seconds(5));
    stop.store(true);
  });
  StatusOr<ShardedComparison> first_or = RunShardedResumable(config, first_leg);
  stopper.join();
  ASSERT_TRUE(first_or.ok()) << first_or.status().ToString();

  // Resume with different execution knobs; the journal is portable.
  ShardEngineOptions second_leg = golden_options;
  second_leg.threads = 4;
  second_leg.checkpoint_path = path;
  StatusOr<ShardedComparison> resumed_or = RunShardedResumable(config, second_leg);
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  const ShardedComparison& resumed = *resumed_or;

  EXPECT_EQ(static_cast<int>(first_or->market_pad_digests.size()), resumed.resumed_markets);
  EXPECT_EQ(golden.num_markets, resumed.num_markets);
  EXPECT_EQ(golden.total_sessions, resumed.total_sessions);
  EXPECT_EQ(golden.market_pad_digests, resumed.market_pad_digests);
  EXPECT_EQ(golden.combined_pad_digest, resumed.combined_pad_digest);
  EXPECT_EQ(MetricsDigest(golden.totals.pad), MetricsDigest(resumed.totals.pad));
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_LE(resumed.peak_resident_users, second_leg.max_resident_users);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pad
