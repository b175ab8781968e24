// Cross-module behavioural properties of the full system: these check the
// *directions* the paper's evaluation depends on, each on a small paired run
// (same trace, same campaign stream, one knob changed).
#include <gtest/gtest.h>

#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

PadConfig BaseConfig() {
  PadConfig config = QuickConfig();
  config.population.num_users = 80;
  return config;
}

struct PairedRuns {
  SimInputs inputs;
  BaselineResult baseline;

  explicit PairedRuns(const PadConfig& config)
      : inputs(GenerateInputs(config)), baseline(RunBaseline(config, inputs)) {}

  PadRunResult Run(const PadConfig& config) { return RunPad(config, inputs); }
};

TEST(EndToEndTest, DeadlinePressureCostsEnergyNotSla) {
  // The adaptive machinery targets a violation rate, so tightening the
  // display deadline shows up as lost prefetching opportunity (and more
  // replication), not as a collapsing SLA.
  PadConfig config = BaseConfig();
  PairedRuns runs(config);

  config.deadline_s = 0.5 * kHour;
  const PadRunResult tight = runs.Run(config);
  config.deadline_s = 4.0 * kHour;
  const PadRunResult loose = runs.Run(config);

  Comparison tight_cmp{runs.baseline, tight};
  Comparison loose_cmp{runs.baseline, loose};
  EXPECT_GT(loose_cmp.AdEnergySavings(), tight_cmp.AdEnergySavings());
  EXPECT_LT(tight.ledger.SlaViolationRate(), 0.10);
  EXPECT_LT(loose.ledger.SlaViolationRate(), 0.10);
}

TEST(EndToEndTest, AggressiveCapacitySellsMoreButViolatesMore) {
  PadConfig config = BaseConfig();
  PairedRuns runs(config);

  config.capacity_confidence = 0.6;
  const PadRunResult conservative = runs.Run(config);
  config.capacity_confidence = 0.15;
  const PadRunResult aggressive = runs.Run(config);
  EXPECT_GT(aggressive.impressions_sold, conservative.impressions_sold);
  EXPECT_GE(aggressive.ledger.SlaViolationRate(), conservative.ledger.SlaViolationRate());
  EXPECT_GT(aggressive.service.CacheHitRate(), conservative.service.CacheHitRate());
}

TEST(EndToEndTest, InvalidationSyncCutsRevenueLoss) {
  PadConfig config = BaseConfig();
  config.overbooking_factor = 2.0;  // Plenty of replicas to deduplicate.
  PairedRuns runs(config);

  const PadRunResult with_sync = runs.Run(config);
  config.invalidation_sync = false;
  config.rescue_enabled = false;  // Rescue depends on placement tracking.
  PadConfig no_sync = config;
  const PadRunResult without_sync = runs.Run(no_sync);
  EXPECT_LT(with_sync.ledger.RevenueLossRate(), without_sync.ledger.RevenueLossRate());
}

TEST(EndToEndTest, MoreReplicationRaisesHitRateAndLoss) {
  PadConfig config = BaseConfig();
  PairedRuns runs(config);

  config.overbooking_factor = 0.8;  // One replica usually satisfies this.
  const PadRunResult lean = runs.Run(config);
  config.overbooking_factor = 2.5;
  config.planner.max_replicas = 8;  // Default cap of 2 would mask the knob.
  const PadRunResult fat = runs.Run(config);
  EXPECT_GT(fat.MeanReplication(), lean.MeanReplication());
  EXPECT_GE(fat.service.CacheHitRate(), lean.service.CacheHitRate());
  EXPECT_GT(fat.ledger.RevenueLossRate(), lean.ledger.RevenueLossRate());
}

TEST(EndToEndTest, OracleBeatsRealPredictor) {
  PadConfig config = BaseConfig();
  PairedRuns runs(config);

  const PadRunResult real = runs.Run(config);
  config.use_noisy_oracle = true;
  config.oracle_noise_sigma = 0.0;
  const PadRunResult oracle = runs.Run(config);
  // Perfect foresight fills more slots from cache and violates less.
  EXPECT_GT(oracle.service.CacheHitRate(), real.service.CacheHitRate());
  EXPECT_LE(oracle.ledger.SlaViolationRate(), real.ledger.SlaViolationRate() + 0.01);
}

TEST(EndToEndTest, PredictionNoiseDegradesGracefully) {
  PadConfig config = BaseConfig();
  config.use_noisy_oracle = true;
  config.oracle_noise_sigma = 0.0;
  PairedRuns runs(config);

  const PadRunResult clean = runs.Run(config);
  config.oracle_noise_sigma = 1.0;
  const PadRunResult noisy = runs.Run(config);
  // Noise costs hit rate, but overbooking keeps the system functional:
  // violations stay bounded rather than exploding.
  EXPECT_GE(clean.service.CacheHitRate(), noisy.service.CacheHitRate());
  EXPECT_LT(noisy.ledger.SlaViolationRate(), 0.25);
}

TEST(EndToEndTest, WifiMakesPrefetchingLessValuable) {
  PadConfig config = BaseConfig();
  SimInputs inputs = GenerateInputs(config);

  const BaselineResult baseline_3g = RunBaseline(config, inputs);
  const PadRunResult pad_3g = RunPad(config, inputs);
  config.radio = WifiProfile();
  const BaselineResult baseline_wifi = RunBaseline(config, inputs);
  const PadRunResult pad_wifi = RunPad(config, inputs);

  // Absolute ad energy on WiFi is tiny compared to 3G.
  EXPECT_LT(baseline_wifi.energy.AdEnergyJ(), baseline_3g.energy.AdEnergyJ() / 10.0);
  // Savings exist on both, but the joules saved on 3G dominate.
  const double saved_3g = baseline_3g.energy.AdEnergyJ() - pad_3g.energy.AdEnergyJ();
  const double saved_wifi = baseline_wifi.energy.AdEnergyJ() - pad_wifi.energy.AdEnergyJ();
  EXPECT_GT(saved_3g, 10.0 * saved_wifi);
}

TEST(EndToEndTest, FlatDiurnalTracesStillWork) {
  PadConfig config = BaseConfig();
  config.population.flat_diurnal = true;
  const Comparison comparison = RunComparison(config);
  EXPECT_GT(comparison.AdEnergySavings(), 0.2);
  EXPECT_LT(comparison.pad.ledger.SlaViolationRate(), 0.15);
}

TEST(EndToEndTest, RescueReducesViolations) {
  PadConfig config = BaseConfig();
  PairedRuns runs(config);

  const PadRunResult with_rescue = runs.Run(config);
  config.rescue_enabled = false;
  const PadRunResult without_rescue = runs.Run(config);
  EXPECT_LE(with_rescue.ledger.SlaViolationRate(),
            without_rescue.ledger.SlaViolationRate());
}

TEST(EndToEndTest, TargetedMarketStillWorks) {
  PadConfig config = BaseConfig();
  config.population.num_segments = 8;
  config.campaigns.targeted_fraction = 1.0;
  config.campaigns.segment_selectivity = 0.25;
  const Comparison comparison = RunComparison(config);
  EXPECT_GT(comparison.AdEnergySavings(), 0.25);
  EXPECT_LT(comparison.pad.ledger.SlaViolationRate(), 0.12);
  EXPECT_GT(comparison.RevenueRatio(), 0.80);
}

TEST(EndToEndTest, NarrowTargetingCostsMoreThanBroad) {
  PadConfig config = BaseConfig();
  config.population.num_segments = 8;
  config.campaigns.targeted_fraction = 1.0;

  config.campaigns.segment_selectivity = 0.60;
  const Comparison broad = RunComparison(config);
  config.campaigns.segment_selectivity = 0.125;
  const Comparison narrow = RunComparison(config);
  // Narrow audiences shrink both the replica pool and the eligible demand
  // per slot; the system must stay functional, just less profitable.
  EXPECT_GT(narrow.pad.service.slots, 0);
  EXPECT_LE(narrow.pad.ledger.billed_revenue, broad.pad.ledger.billed_revenue * 1.05);
}

TEST(EndToEndTest, CappedAndBudgetedMarketsRunClean) {
  PadConfig config = BaseConfig();
  config.campaigns.capped_fraction = 0.5;
  config.campaigns.budgeted_fraction = 0.5;
  const Comparison comparison = RunComparison(config);
  EXPECT_GT(comparison.AdEnergySavings(), 0.25);
  // Frequency caps force anti-concentration (replicas spread to low-activity
  // clients), so violations sit higher than the uncapped market's ~4%.
  EXPECT_LT(comparison.pad.ledger.SlaViolationRate(), 0.16);
}

TEST(EndToEndTest, ThinMarketLimitsRevenueButNotEnergy) {
  PadConfig config = BaseConfig();
  config.campaigns.arrivals_per_day = 0.5;  // Barely any demand.
  const Comparison comparison = RunComparison(config);
  // With little to sell, most slots are unfilled in both systems; the PAD
  // machinery must not crash or burn energy on phantom inventory.
  EXPECT_GT(comparison.pad.service.unfilled, 0);
  EXPECT_LT(comparison.pad.ledger.sold, comparison.pad.service.slots / 2);
}

}  // namespace
}  // namespace pad
