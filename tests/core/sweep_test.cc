// Unit tests for the parallel sweep engine, which fans runs out on the
// work-stealing task scheduler (the scheduler itself is unit-tested in
// tests/common/task_scheduler_test.cc).
//
// The serial-vs-parallel *equivalence* guarantee is exercised here at unit
// scale (a handful of tiny runs) and at system scale in
// tests/integration/parallel_determinism_test.cc.
#include "src/core/sweep.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/units.h"

namespace pad {
namespace {

PadConfig TinyConfig(int num_users) {
  PadConfig config = QuickConfig();
  config.population.num_users = num_users;
  config.population.horizon_s = 9.0 * kDay;
  return config;
}

// `jobs` tiny comparisons that differ only in their seeds.
std::vector<PadConfig> SeededConfigs(int jobs) {
  std::vector<PadConfig> configs;
  for (int job = 0; job < jobs; ++job) {
    PadConfig config = TinyConfig(8);
    config.seed = static_cast<uint64_t>(job + 1);
    config.population.seed = static_cast<uint64_t>(job + 1) * 101;
    configs.push_back(config);
  }
  return configs;
}

// The sweep at `threads` must equal the serial loop, digest for digest.
void ExpectSweepMatchesSerialLoop(const std::vector<PadConfig>& configs, int threads) {
  const std::vector<Comparison> parallel = RunComparisonMany(configs, {.threads = threads});
  ASSERT_EQ(parallel.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(ComparisonDigest(parallel[i]), ComparisonDigest(RunComparison(configs[i])))
        << "threads=" << threads << " i=" << i;
  }
}

TEST(SweepTest, EmptyConfigListRunsNothingAndReturnsNothing) {
  EXPECT_TRUE(RunComparisonMany({}, {.threads = 4}).empty());
  std::vector<EventLog> logs(2);
  const SimInputs inputs = GenerateInputs(TinyConfig(4));
  EXPECT_TRUE(RunPadMany({}, inputs, {.threads = 4}, &logs).empty());
  EXPECT_TRUE(logs.empty());
}

TEST(SweepTest, MoreThreadsThanJobsMatchesSerialLoop) {
  ExpectSweepMatchesSerialLoop(SeededConfigs(2), 8);
}

TEST(SweepTest, ZeroThreadsAsksHardwareAndMatchesSerialLoop) {
  ExpectSweepMatchesSerialLoop(SeededConfigs(3), 0);
}

TEST(SweepTest, ResultsComeBackInSubmissionOrder) {
  // Distinct horizons make each job's scored_days identify it.
  std::vector<PadConfig> configs;
  for (int extra_day = 0; extra_day < 4; ++extra_day) {
    PadConfig config = TinyConfig(6);
    config.population.horizon_s = (9.0 + extra_day) * kDay;
    configs.push_back(config);
  }
  const std::vector<Comparison> results = RunComparisonMany(configs, {.threads = 4});
  ASSERT_EQ(results.size(), configs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_DOUBLE_EQ(results[i].pad.scored_days, 2.0 + static_cast<double>(i)) << "i=" << i;
  }
}

TEST(SweepTest, ParallelComparisonMatchesSerialLoop) {
  ExpectSweepMatchesSerialLoop(SeededConfigs(3), 3);
}

TEST(SweepTest, SharedInputRunsMatchSerialIncludingEventLogs) {
  PadConfig base = TinyConfig(8);
  const SimInputs inputs = GenerateInputs(base);

  std::vector<PadConfig> points;
  for (double confidence : {0.2, 0.4, 0.6}) {
    PadConfig point = base;
    point.capacity_confidence = confidence;
    points.push_back(point);
  }

  std::vector<EventLog> serial_logs(points.size());
  std::vector<PadRunResult> serial;
  for (size_t i = 0; i < points.size(); ++i) {
    serial.push_back(RunPad(points[i], inputs, &serial_logs[i]));
  }

  std::vector<EventLog> parallel_logs;
  const std::vector<PadRunResult> parallel =
      RunPadMany(points, inputs, {.threads = 3}, &parallel_logs);

  ASSERT_EQ(parallel.size(), serial.size());
  ASSERT_EQ(parallel_logs.size(), serial_logs.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(MetricsDigest(parallel[i]), MetricsDigest(serial[i])) << "i=" << i;
    EXPECT_EQ(parallel_logs[i].Digest(), serial_logs[i].Digest()) << "i=" << i;
    EXPECT_EQ(parallel_logs[i].events().size(), serial_logs[i].events().size()) << "i=" << i;
  }
}

TEST(SweepTest, ReplicateWithSeedsDecorrelatesJobs) {
  const PadConfig base = TinyConfig(8);
  const std::vector<PadConfig> replicas = ReplicateWithSeeds(base, 4, 99);
  ASSERT_EQ(replicas.size(), 4u);
  for (size_t i = 0; i < replicas.size(); ++i) {
    for (size_t j = i + 1; j < replicas.size(); ++j) {
      EXPECT_NE(replicas[i].seed, replicas[j].seed);
      EXPECT_NE(replicas[i].population.seed, replicas[j].population.seed);
      EXPECT_NE(replicas[i].campaigns.seed, replicas[j].campaigns.seed);
    }
  }
  // Same base seed -> same replica seeds (the helper itself is deterministic).
  const std::vector<PadConfig> again = ReplicateWithSeeds(base, 4, 99);
  for (size_t i = 0; i < replicas.size(); ++i) {
    EXPECT_EQ(replicas[i].seed, again[i].seed);
  }
  // Different traces: the replicated runs must not be identical.
  const std::vector<Comparison> results = RunComparisonMany(replicas, {.threads = 2});
  EXPECT_NE(ComparisonDigest(results[0]), ComparisonDigest(results[1]));
}

// market_users partitions a sweep point exactly as it partitions one engine
// run: the point is the engine's result, not the whole-population one.
TEST(SweepTest, MarketUsersPartitionsEachPoint) {
  PadConfig marketed = TinyConfig(40);
  marketed.market_users = 20;
  PadConfig whole = marketed;
  whole.market_users = 0;
  const std::vector<PadConfig> configs = {marketed, whole};
  const std::vector<Comparison> results = RunComparisonMany(configs, {.threads = 2});
  ASSERT_EQ(2u, results.size());
  EXPECT_EQ(ComparisonDigest(RunShardedComparison(marketed).totals),
            ComparisonDigest(results[0]));
  EXPECT_NE(ComparisonDigest(results[1]), ComparisonDigest(results[0]));
}

TEST(SweepTest, DigestDistinguishesDifferentRuns) {
  PadConfig a = TinyConfig(8);
  PadConfig b = TinyConfig(8);
  b.deadline_s = 2.0 * kHour;
  const Comparison ca = RunComparison(a);
  const Comparison cb = RunComparison(b);
  EXPECT_NE(ComparisonDigest(ca), ComparisonDigest(cb));
  // Same config twice: identical digest (the run itself is deterministic).
  EXPECT_EQ(ComparisonDigest(ca), ComparisonDigest(RunComparison(a)));
}

}  // namespace
}  // namespace pad
