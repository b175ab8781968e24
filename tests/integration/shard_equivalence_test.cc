// The shard engine's two-sided determinism contract (src/core/shard_engine.h):
//
//   1. market_users = 0 (one market) is byte-identical to the monolithic
//      RunComparison path — metrics and event-log digests both.
//   2. For a fixed config (any market_users), results are byte-identical for
//      every worker count, schedule (static or work-stealing), steal seed,
//      and residency budget — including under fault injection.
//
// Digests are FNV-1a over every metrics field (sweep.h), so "digest equal"
// here means "bit-identical", not "approximately equal".
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/event_log.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

// 300 users, 9 trace days (7 warmup + 2 scored): big enough for several
// markets, small enough to run many engine configurations.
PadConfig TestConfig() {
  PadConfig config;
  config.population.num_users = 300;
  config.population.horizon_s = 9.0 * kDay;
  config.warmup_days = 7;
  config.campaigns.arrivals_per_day = 450.0;
  return config;
}

FaultConfig TestFaults() {
  FaultConfig faults = FaultConfig::Uniform(0.05);
  faults.report_delay_rate = 0.025;
  return faults;
}

struct MonolithicRun {
  uint64_t baseline_digest = 0;
  uint64_t pad_digest = 0;
  uint64_t event_digest = 0;
};

MonolithicRun RunMonolithic(const PadConfig& config) {
  const SimInputs inputs = GenerateInputs(config);
  MonolithicRun run;
  run.baseline_digest = MetricsDigest(RunBaseline(config, inputs));
  EventLog log;
  run.pad_digest = MetricsDigest(RunPad(config, inputs, &log));
  run.event_digest = log.Digest();
  return run;
}

void ExpectSameShardedResult(const ShardedComparison& expected,
                             const ShardedComparison& actual) {
  EXPECT_EQ(expected.num_markets, actual.num_markets);
  EXPECT_EQ(expected.total_users, actual.total_users);
  EXPECT_EQ(expected.total_sessions, actual.total_sessions);
  EXPECT_EQ(expected.market_pad_digests, actual.market_pad_digests);
  EXPECT_EQ(expected.market_baseline_digests, actual.market_baseline_digests);
  EXPECT_EQ(expected.market_event_digests, actual.market_event_digests);
  EXPECT_EQ(expected.combined_pad_digest, actual.combined_pad_digest);
  EXPECT_EQ(expected.combined_baseline_digest, actual.combined_baseline_digest);
  EXPECT_EQ(expected.combined_event_digest, actual.combined_event_digest);
  // The folded totals too, field by field through the metrics digest.
  EXPECT_EQ(MetricsDigest(expected.totals.pad), MetricsDigest(actual.totals.pad));
  EXPECT_EQ(MetricsDigest(expected.totals.baseline), MetricsDigest(actual.totals.baseline));
}

void CheckMonolithicEquality(PadConfig config) {
  config.market_users = 0;
  const MonolithicRun mono = RunMonolithic(config);
  for (const int threads : {1, 4, 32}) {
    ShardEngineOptions options;
    options.threads = threads;
    options.event_digests = true;
    const ShardedComparison sharded = RunShardedComparison(config, options);
    ASSERT_EQ(1, sharded.num_markets);
    // Bit-identical run: the single market IS the monolithic run.
    EXPECT_EQ(mono.pad_digest, MetricsDigest(sharded.totals.pad)) << "threads=" << threads;
    EXPECT_EQ(mono.baseline_digest, MetricsDigest(sharded.totals.baseline));
    EXPECT_EQ(mono.pad_digest, sharded.market_pad_digests.at(0));
    EXPECT_EQ(mono.event_digest, sharded.market_event_digests.at(0));
    // The combined reduction wraps the per-market digests, so compare it
    // against the identically wrapped monolithic digest.
    const std::vector<uint64_t> wrapped_pad = {mono.pad_digest};
    const std::vector<uint64_t> wrapped_events = {mono.event_digest};
    EXPECT_EQ(DigestCombine(wrapped_pad), sharded.combined_pad_digest);
    EXPECT_EQ(DigestCombine(wrapped_events), sharded.combined_event_digest);
  }
}

void CheckExecutionKnobInvariance(PadConfig config, const std::vector<int>& thread_counts) {
  config.market_users = 50;
  ShardEngineOptions reference_options;
  reference_options.threads = 1;
  reference_options.event_digests = true;
  const ShardedComparison reference = RunShardedComparison(config, reference_options);
  ASSERT_EQ(6, reference.num_markets);

  for (const int threads : thread_counts) {
    // Unlimited, then a tight budget that exercises the admission gate.
    for (const int64_t max_resident : {int64_t{0}, int64_t{100}}) {
      ShardEngineOptions options;
      options.threads = threads;
      options.event_digests = true;
      options.max_resident_users = max_resident;
      const ShardedComparison run = RunShardedComparison(config, options);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " max_resident=" + std::to_string(max_resident));
      ExpectSameShardedResult(reference, run);
      if (max_resident > 0) {
        EXPECT_LE(run.peak_resident_users, max_resident);
      }
    }
  }
}

TEST(ShardEquivalenceTest, SingleMarketMatchesMonolithicPath) {
  CheckMonolithicEquality(TestConfig());
}

TEST(ShardEquivalenceTest, SingleMarketMatchesMonolithicPathUnderFaults) {
  PadConfig config = TestConfig();
  config.faults = TestFaults();
  CheckMonolithicEquality(config);
}

TEST(ShardEquivalenceTest, ShardAndThreadCountsNeverChangeResults) {
  CheckExecutionKnobInvariance(TestConfig(), {2, 4, 7, 32});
}

TEST(ShardEquivalenceTest, ShardAndThreadCountsNeverChangeResultsUnderFaults) {
  PadConfig config = TestConfig();
  config.faults = TestFaults();
  CheckExecutionKnobInvariance(config, {7, 32});
}

// The scheduler stress battery: a heavy-cluster skewed population (the first
// ~10% of users carry 10x the session rate, so the first markets cost an
// order of magnitude more than the rest) crossed with every scheduler knob.
// Skew concentrates work exactly where it provokes stealing — the first
// worker's whole initial range is heavy — so these runs exercise real steal
// interleavings, not the degenerate no-steal path, and the seed sweep varies
// which worker wins each race. Every combination must be byte-identical to
// the serial single-worker reference.
TEST(ShardEquivalenceTest, SchedulerStressSkewedMarketsByteIdentical) {
  PadConfig config = TestConfig();
  config.population.num_users = 240;
  config.population.skew_heavy_fraction = 0.1;
  config.population.skew_rate_multiplier = 10.0;
  config.market_users = 20;  // 12 markets; the first ~1.2 are heavy.

  ShardEngineOptions reference_options;
  reference_options.threads = 1;
  reference_options.event_digests = true;
  const ShardedComparison reference = RunShardedComparison(config, reference_options);
  ASSERT_EQ(12, reference.num_markets);

  for (const ScheduleMode schedule : {ScheduleMode::kStatic, ScheduleMode::kStealing}) {
    for (const int workers : {2, 3, 8}) {
      for (const int64_t max_resident : {int64_t{0}, int64_t{60}}) {
        for (const uint64_t steal_seed : {1ull, 2ull, 3ull}) {
          // A static run has no steal scan: the seed cannot matter, so run it
          // once per {workers, max_resident} cell instead of per seed.
          if (schedule == ScheduleMode::kStatic && steal_seed != 1ull) {
            continue;
          }
          ShardEngineOptions options;
          options.threads = workers;
          options.schedule = schedule;
          options.steal_seed = steal_seed;
          options.max_resident_users = max_resident;
          options.event_digests = true;
          SCOPED_TRACE("schedule=" +
                       std::string(schedule == ScheduleMode::kStealing ? "stealing" : "static") +
                       " workers=" + std::to_string(workers) +
                       " max_resident=" + std::to_string(max_resident) +
                       " steal_seed=" + std::to_string(steal_seed));
          const ShardedComparison run = RunShardedComparison(config, options);
          ExpectSameShardedResult(reference, run);
          EXPECT_LE(run.workers_used, workers);
          if (max_resident > 0) {
            EXPECT_LE(run.peak_resident_users, max_resident);
          }
          if (schedule == ScheduleMode::kStatic) {
            EXPECT_EQ(0, run.tasks_stolen);
          }
        }
      }
    }
  }
}

// Same contract under fault injection: steal interleavings must not perturb
// per-market fault RNG streams.
TEST(ShardEquivalenceTest, SchedulerStressSkewedMarketsByteIdenticalUnderFaults) {
  PadConfig config = TestConfig();
  config.population.num_users = 240;
  config.population.skew_heavy_fraction = 0.1;
  config.population.skew_rate_multiplier = 10.0;
  config.market_users = 20;
  config.faults = TestFaults();

  ShardEngineOptions reference_options;
  reference_options.threads = 1;
  reference_options.event_digests = true;
  const ShardedComparison reference = RunShardedComparison(config, reference_options);

  for (const int workers : {3, 8}) {
    for (const uint64_t steal_seed : {1ull, 7ull}) {
      ShardEngineOptions options;
      options.threads = workers;
      options.schedule = ScheduleMode::kStealing;
      options.steal_seed = steal_seed;
      options.event_digests = true;
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " steal_seed=" + std::to_string(steal_seed));
      ExpectSameShardedResult(reference, RunShardedComparison(config, options));
    }
  }
}

// The execution trace the bench consumes: every simulated market must report
// a real worker and a positive thread-CPU cost, and the per-worker partition
// of markets must be a partition (every market attributed exactly once).
TEST(ShardEquivalenceTest, ExecutionTraceCoversEveryMarket) {
  PadConfig config = TestConfig();
  config.market_users = 50;
  ShardEngineOptions options;
  options.threads = 3;
  const ShardedComparison run = RunShardedComparison(config, options);
  ASSERT_EQ(6, run.num_markets);
  ASSERT_EQ(6u, run.market_workers.size());
  ASSERT_EQ(6u, run.market_busy_s.size());
  EXPECT_EQ(3, run.workers_used);
  for (int m = 0; m < run.num_markets; ++m) {
    EXPECT_GE(run.market_workers[m], 0) << "market " << m;
    EXPECT_LT(run.market_workers[m], run.workers_used) << "market " << m;
    EXPECT_GT(run.market_busy_s[m], 0.0) << "market " << m;
  }
}

TEST(ShardEquivalenceTest, MarketBoundariesPartitionContiguously) {
  EXPECT_EQ((std::vector<int64_t>{0, 300}), MarketBoundaries(300, 0));
  EXPECT_EQ((std::vector<int64_t>{0, 300}), MarketBoundaries(300, 400));
  EXPECT_EQ((std::vector<int64_t>{0, 100, 200, 300}), MarketBoundaries(300, 100));
  EXPECT_EQ((std::vector<int64_t>{0, 130, 260, 300}), MarketBoundaries(300, 130));
  EXPECT_EQ((std::vector<int64_t>{0, 1}), MarketBoundaries(1, 1));
}

TEST(ShardEquivalenceTest, ValidateShardOptionsRejectsBadKnobs) {
  const PadConfig config = TestConfig();
  EXPECT_EQ("", ValidateShardOptions(config, {}));

  ShardEngineOptions negative;
  negative.threads = -1;
  EXPECT_NE("", ValidateShardOptions(config, negative));

  // Budget below the largest market would deadlock the admission gate, so
  // it must be rejected up front.
  ShardEngineOptions tight;
  tight.max_resident_users = 10;
  EXPECT_NE("", ValidateShardOptions(config, tight));

  PadConfig marketed = config;
  marketed.market_users = 50;
  ShardEngineOptions exact;
  exact.max_resident_users = 50;
  EXPECT_EQ("", ValidateShardOptions(marketed, exact));

  // 0 processes means in-process lanes; fewer is meaningless.
  ShardEngineOptions negative_processes;
  negative_processes.processes = -1;
  EXPECT_NE("", ValidateShardOptions(config, negative_processes));

  // Forked workers hand their results back through their journals, so they
  // need a checkpoint path.
  ShardEngineOptions forked;
  forked.processes = 2;
  EXPECT_NE(std::string::npos,
            ValidateShardOptions(config, forked).find("requires checkpointing"));
  forked.checkpoint_path = "run.ckpt";
  EXPECT_EQ("", ValidateShardOptions(config, forked));

  ShardEngineOptions bad_stall;
  bad_stall.stall_kill_s = -1.0;
  EXPECT_NE("", ValidateShardOptions(config, bad_stall));
}

}  // namespace
}  // namespace pad
