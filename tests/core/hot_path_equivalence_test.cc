// Hot-path equivalence battery: locks the optimized per-user kernel to the
// exact digests produced by the pre-optimization implementation.
//
// The arena-backed event core, batched RRC folds, probability memo, and
// scratch-buffer reuse are all claimed to be *pure* optimizations — every
// metric and every event log byte-identical to the straightforward code they
// replaced. This test is that claim, enforced: each battery case (threads ×
// schedule × faults × skew × wifi × segments) must reproduce the golden
// combined digests captured from the seed implementation, across worker
// counts, both schedule modes, and different steal seeds.
//
// If you *intended* to change simulation semantics, regenerate the constants
// by building with -DADPAD_REGENERATE_GOLDEN and running this test; it
// prints the new literals.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/core/event_log.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

PadConfig BatteryBase() {
  PadConfig config = QuickConfig();  // 40 users, 10 days, 1 warmup week.
  config.seed = 1234;
  config.population.seed = 42;
  config.campaigns.seed = 7;
  return config;
}

struct BatteryCase {
  std::string name;
  PadConfig config;
  // Golden digests captured from the pre-optimization seed implementation
  // (threads=2, stealing). Execution knobs must not change them.
  uint64_t pad_digest = 0;
  uint64_t baseline_digest = 0;
  uint64_t event_digest = 0;
  int64_t total_sessions = 0;
};

std::vector<BatteryCase> Battery() {
  std::vector<BatteryCase> cases;
  {
    BatteryCase c{"mono", BatteryBase(), 0x0bd22f3f8b801f63ull, 0xcd9a87e83179497dull,
                  0x50c04d415d743c1dull, 13407};
    cases.push_back(c);
  }
  {
    BatteryCase c{"sharded", BatteryBase(), 0x90c602bc1d6950b0ull, 0x5dcce82af6fc94b0ull,
                  0x1732e8f5d7ceefffull, 13407};
    c.config.market_users = 10;
    cases.push_back(c);
  }
  {
    BatteryCase c{"faults", BatteryBase(), 0x3decfc942905dadcull, 0x5dcce82af6fc94b0ull,
                  0x2c1a247d0f339e88ull, 13407};
    c.config.market_users = 10;
    c.config.faults.report_drop_rate = 0.10;
    c.config.faults.report_delay_rate = 0.05;
    c.config.faults.fetch_failure_rate = 0.10;
    c.config.faults.sync_miss_rate = 0.10;
    c.config.faults.offline_rate = 0.05;
    cases.push_back(c);
  }
  {
    BatteryCase c{"skew", BatteryBase(), 0xa0e3027c56ddd635ull, 0x7f3b2d12e4dc923full,
                  0xd1a2b4efe27c5d66ull, 34981};
    c.config.market_users = 10;
    c.config.population.skew_heavy_fraction = 0.25;
    c.config.population.skew_rate_multiplier = 8.0;
    cases.push_back(c);
  }
  {
    BatteryCase c{"wifi", BatteryBase(), 0xb473530969992a60ull, 0x542deea7c7ba8816ull,
                  0xd25bab6aab3b0bceull, 13407};
    c.config.wifi.enabled = true;
    c.config.market_users = 13;  // Uneven final market.
    cases.push_back(c);
  }
  {
    BatteryCase c{"oracle", BatteryBase(), 0xa51b9ba171199907ull, 0xcd9a87e83179497dull,
                  0xfbeb05c982ce32e1ull, 13407};
    c.config.use_noisy_oracle = true;
    c.config.oracle_noise_sigma = 1.0;
    cases.push_back(c);
  }
  {
    BatteryCase c{"segments", BatteryBase(), 0x29a0707fae8cd337ull, 0x636ac7e57a775162ull,
                  0xc7edc6025a3be034ull, 13407};
    c.config.population.num_segments = 3;
    c.config.market_users = 13;
    cases.push_back(c);
  }
  {
    BatteryCase c{"kitchen_sink", BatteryBase(), 0xdeb7819cbba1e922ull, 0x8e84fd4f53f5728bull,
                  0x28ce6216029a42b3ull, 24070};
    c.config.population.num_segments = 2;
    c.config.market_users = 7;
    c.config.wifi.enabled = true;
    c.config.population.skew_heavy_fraction = 0.25;
    c.config.population.skew_rate_multiplier = 4.0;
    c.config.faults.report_drop_rate = 0.05;
    c.config.faults.fetch_failure_rate = 0.05;
    c.config.faults.offline_rate = 0.05;
    cases.push_back(c);
  }
  {
    // The fixed-margin policy: PlanWithFactor instead of PlanToTarget.
    BatteryCase c{"overbooking_factor", BatteryBase(), 0x364f4a8f74a0c786ull,
                  0x5dcce82af6fc94b0ull, 0x22bf60a42a595f12ull, 13407};
    c.config.market_users = 10;
    c.config.overbooking_factor = 1.5;
    cases.push_back(c);
  }
  {
    // A discounted model and a wide replica cap: the planner walks past the
    // default two-entry prefix of the candidate order.
    BatteryCase c{"wide_replicas", BatteryBase(), 0x3afd1082cd91ebf5ull,
                  0x5dcce82af6fc94b0ull, 0xdc582bc5c45f157bull, 13407};
    c.config.market_users = 10;
    c.config.planner.max_replicas = 8;
    c.config.planner.confidence_discount = 0.8;
    cases.push_back(c);
  }
  {
    // Narrow targeting and frequency caps: the segment and cap branches of
    // the eligibility check, the diversity counter and the batch limit.
    BatteryCase c{"targeted_capped", BatteryBase(), 0xf2aa05f3112172e7ull,
                  0xd19d0bc54b75d131ull, 0x1e1f32fde681a1b9ull, 13407};
    c.config.market_users = 10;
    c.config.population.num_segments = 4;
    c.config.campaigns.targeted_fraction = 0.7;
    c.config.campaigns.segment_selectivity = 0.25;
    c.config.campaigns.capped_fraction = 0.5;
    cases.push_back(c);
  }
  {
    // The same market with offline clients and missed syncs on top.
    BatteryCase c{"targeted_capped_faults", BatteryBase(), 0x9100bba301c3a9d4ull,
                  0xd19d0bc54b75d131ull, 0x2329583edf7df6daull, 13407};
    c.config.market_users = 10;
    c.config.population.num_segments = 4;
    c.config.campaigns.targeted_fraction = 0.7;
    c.config.campaigns.segment_selectivity = 0.25;
    c.config.campaigns.capped_fraction = 0.5;
    c.config.faults.sync_miss_rate = 0.10;
    c.config.faults.offline_rate = 0.05;
    c.config.faults.fetch_failure_rate = 0.05;
    cases.push_back(c);
  }
  return cases;
}

ShardedComparison RunCase(const PadConfig& config, int threads, ScheduleMode schedule,
                          uint64_t steal_seed) {
  ShardEngineOptions options;
  options.threads = threads;
  options.schedule = schedule;
  options.steal_seed = steal_seed;
  options.event_digests = true;
  return RunShardedComparison(config, options);
}

TEST(HotPathEquivalenceTest, BatteryMatchesGoldenDigests) {
  for (const BatteryCase& c : Battery()) {
    SCOPED_TRACE(c.name);
    const ShardedComparison result = RunCase(c.config, /*threads=*/2,
                                             ScheduleMode::kStealing, /*steal_seed=*/0);
#ifdef ADPAD_REGENERATE_GOLDEN
    std::printf("{\"%s\", ..., 0x%016llxull, 0x%016llxull, 0x%016llxull, %lld},\n",
                c.name.c_str(), (unsigned long long)result.combined_pad_digest,
                (unsigned long long)result.combined_baseline_digest,
                (unsigned long long)result.combined_event_digest,
                (long long)result.total_sessions);
#else
    EXPECT_EQ(result.combined_pad_digest, c.pad_digest);
    EXPECT_EQ(result.combined_baseline_digest, c.baseline_digest);
    EXPECT_EQ(result.combined_event_digest, c.event_digest);
    EXPECT_EQ(result.total_sessions, c.total_sessions);
#endif
  }
#ifdef ADPAD_REGENERATE_GOLDEN
  GTEST_SKIP() << "regeneration mode: constants printed above";
#endif
}

// Execution knobs — worker count, schedule mode, steal interleaving — must
// never leak into results. Sweep them over the cases whose market structure
// gives the scheduler something to do (many markets, skewed market weights).
TEST(HotPathEquivalenceTest, DigestsInvariantAcrossThreadsAndSchedule) {
  const std::vector<BatteryCase> battery = Battery();
  for (const BatteryCase& c : battery) {
    if (c.name != "sharded" && c.name != "skew" && c.name != "kitchen_sink") {
      continue;
    }
    SCOPED_TRACE(c.name);
    struct Exec {
      int threads;
      ScheduleMode schedule;
      uint64_t steal_seed;
    };
    const Exec matrix[] = {
        {1, ScheduleMode::kStatic, 0},
        {1, ScheduleMode::kStealing, 0},
        {4, ScheduleMode::kStatic, 0},
        {4, ScheduleMode::kStealing, 17},
        {3, ScheduleMode::kStealing, 999},
    };
    for (const Exec& exec : matrix) {
      SCOPED_TRACE(testing::Message() << "threads=" << exec.threads << " schedule="
                                      << (exec.schedule == ScheduleMode::kStealing ? "stealing"
                                                                                   : "static")
                                      << " steal_seed=" << exec.steal_seed);
      const ShardedComparison result =
          RunCase(c.config, exec.threads, exec.schedule, exec.steal_seed);
      EXPECT_EQ(result.combined_pad_digest, c.pad_digest);
      EXPECT_EQ(result.combined_baseline_digest, c.baseline_digest);
      EXPECT_EQ(result.combined_event_digest, c.event_digest);
      EXPECT_EQ(result.total_sessions, c.total_sessions);
    }
  }
}

// The monolithic entry points (no shard engine) must agree with their own
// golden digests, and the SimContext overloads must be byte-identical to the
// legacy PadConfig convenience overloads they wrap.
TEST(HotPathEquivalenceTest, DirectPathMatchesGoldenAndSimContextOverloads) {
  const PadConfig config = BatteryBase();
  const SimContext context = MakeSimContext(config);
  const SimInputs inputs = GenerateInputs(context);

  Comparison comparison;
  comparison.baseline = RunBaseline(context, inputs);
  EventLog log;
  comparison.pad = RunPad(context, inputs, &log);

#ifdef ADPAD_REGENERATE_GOLDEN
  std::printf("direct: comparison=0x%016llxull event=0x%016llxull\n",
              (unsigned long long)ComparisonDigest(comparison),
              (unsigned long long)log.Digest());
  GTEST_SKIP() << "regeneration mode: constants printed above";
#else
  EXPECT_EQ(ComparisonDigest(comparison), 0xa827a5589bc237fbull);
  EXPECT_EQ(log.Digest(), 0xfa647e684c57d3feull);

  // Legacy overloads route through MakeSimContext and must match exactly.
  Comparison legacy;
  legacy.baseline = RunBaseline(config, GenerateInputs(config));
  EventLog legacy_log;
  legacy.pad = RunPad(config, inputs, &legacy_log);
  EXPECT_EQ(ComparisonDigest(legacy), ComparisonDigest(comparison));
  EXPECT_EQ(legacy_log.Digest(), log.Digest());
#endif
}

}  // namespace
}  // namespace pad
