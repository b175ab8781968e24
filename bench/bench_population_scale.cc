// E10 — Population effect: overbooking pools risk across clients, so the
// replica planner (and the rescue pass) need a large enough population to
// find capable backups. Small deployments see worse SLA/loss at the same
// policy settings.
//
// Each population size is one independent paired run, so the seven points
// fan out across the sweep engine; `threads=N` sets the concurrency and
// leaves every number bit-identical to the serial run. E10 reads no other
// key.
//
// E17 — Population scale ceiling: `scale_users=N` switches to the
// streaming sharded engine (src/core/shard_engine.h) and runs one paired
// comparison at N users under a resident-memory budget, reporting wall-clock
// throughput (users/s) and peak RSS; `threads=N` sets the engine's worker
// lanes, and `market_users`, `max_resident_users` and `days` shape the run.
// This is the mode that produces the checked-in BENCH_population_scale.json
// baseline (one command, wrapped):
//
//   $ adpad_bench population_scale scale_users=1000000 market_users=2000
//         max_resident_users=20000 days=9 json=BENCH_population_scale.json
//
// `checkpoint_overhead=1` additionally repeats the run with the crash-recovery
// journal (src/core/checkpoint.h) enabled and reports wall_on/wall_off as the
// `checkpoint_overhead` metric, asserting the journaled run's digests match.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

void RunPopulationEffect(const SweepOptions& sweep, bench::BenchJson& json) {
  PrintBanner(std::cout, "E10: metrics vs population size (same policy everywhere)");
  const std::vector<int> sizes = {10, 25, 50, 100, 200, 400, 800};
  std::vector<PadConfig> configs;
  configs.reserve(sizes.size());
  for (int users : sizes) {
    configs.push_back(bench::StandardConfig(users));
  }
  const std::vector<Comparison> results = RunComparisonMany(configs, sweep);

  TextTable table(bench::MetricsHeader("users"));
  for (size_t i = 0; i < sizes.size(); ++i) {
    table.AddRow(bench::MetricsRow(std::to_string(sizes[i]), results[i].baseline,
                                   results[i].pad));
    json.AddComparison("users=" + std::to_string(sizes[i]), results[i]);
  }
  table.Print(std::cout);
}

struct ScaleOptions {
  int users = 0;
  int market_users = 2000;
  int max_resident_users = 20000;
  double days = 9.0;  // 7 warmup + 2 scored keeps 1M users tractable.
  // checkpoint_overhead=1: repeat the run with the crash-recovery journal
  // enabled (fsync per market) and report wall_on/wall_off. Off by default
  // because it doubles the bench time at full scale.
  bool measure_checkpoint = false;
};

int RunScaleCeiling(const ScaleOptions& scale, const SweepOptions& sweep,
                    bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(scale.users);
  config.population.horizon_s = scale.days * kDay;
  config.market_users = scale.market_users;
  // Demand scales per market inside the engine; pin the population-wide rate
  // the same way StandardConfig does.
  ShardEngineOptions options;
  options.threads = sweep.threads;
  options.max_resident_users = scale.max_resident_users;
  options.event_digests = false;
  if (const std::string error = ValidateShardOptions(config, options); !error.empty()) {
    std::cerr << "population_scale: " << error << "\n";
    return 1;
  }

  const std::string label =
      "users=" + std::to_string(scale.users) + " days=" + FormatDouble(scale.days, 0) +
      " market_users=" + std::to_string(scale.market_users) +
      " max_resident_users=" + std::to_string(scale.max_resident_users);
  PrintBanner(std::cout, "E17: streaming scale ceiling (" + label + ")");

  const auto start = std::chrono::steady_clock::now();
  const ShardedComparison result = RunShardedComparison(config, options);
  const double wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double users_per_s = static_cast<double>(result.total_users) / wall_s;
  const double rss_mib = PeakRssMib();

  TextTable table({"metric", "value"});
  table.AddRow({"users", std::to_string(result.total_users)});
  table.AddRow({"markets", std::to_string(result.num_markets)});
  table.AddRow({"sessions", std::to_string(result.total_sessions)});
  table.AddRow({"wall time", FormatDouble(wall_s, 1) + " s"});
  table.AddRow({"throughput", FormatDouble(users_per_s, 1) + " users/s"});
  table.AddRow({"generate / simulate",
                FormatDouble(result.generate_seconds, 1) + " s / " +
                    FormatDouble(result.simulate_seconds, 1) + " s"});
  table.AddRow({"peak resident users", std::to_string(result.peak_resident_users)});
  table.AddRow({"peak RSS", FormatDouble(rss_mib, 1) + " MiB"});
  table.AddRow({"ad energy savings", bench::Pct(result.totals.AdEnergySavings())});
  table.AddRow({"SLA violation rate",
                bench::Pct(result.totals.pad.ledger.SlaViolationRate(), 2)});
  table.AddRow({"revenue loss rate",
                bench::Pct(result.totals.pad.ledger.RevenueLossRate(), 2)});
  table.AddRow({"revenue vs baseline", bench::Pct(result.totals.RevenueRatio())});
  table.AddRow({"cache hit rate", bench::Pct(result.totals.pad.service.CacheHitRate())});
  table.AddRow({"mean replication", FormatDouble(result.totals.pad.MeanReplication(), 2)});
  table.Print(std::cout);

  json.AddComparison(label, result.totals);
  json.Add("sessions", static_cast<double>(result.total_sessions), "count", label);
  json.Add("peak_resident_users", static_cast<double>(result.peak_resident_users), "users",
           label);
  json.Add("users_per_sec", users_per_s, "users/s", label);
  json.Add("max_rss_mib", rss_mib, "MiB", label);

  if (scale.measure_checkpoint) {
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string journal = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                                "/population_scale.ckpt";
    std::remove(journal.c_str());
    ShardEngineOptions journaled = options;
    journaled.checkpoint_path = journal;
    journaled.checkpoint_fsync = true;

    const auto ck_start = std::chrono::steady_clock::now();
    const StatusOr<ShardedComparison> ck_result = RunShardedResumable(config, journaled);
    const double ck_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - ck_start).count();
    if (!ck_result.ok()) {
      std::cerr << "population_scale: checkpointed run failed: "
                << ck_result.status().ToString() << "\n";
      return ExitCodeFor(ck_result.status());
    }
    // Journaling must never change the numbers, only the wall clock.
    if (ck_result->combined_pad_digest != result.combined_pad_digest) {
      std::cerr << "population_scale: checkpointed run diverged from plain run\n";
      return ExitCodeFor(Status::Internal("digest mismatch with journaling enabled"));
    }
    std::remove(journal.c_str());

    const double overhead = ck_wall_s / wall_s;
    TextTable ck_table({"metric", "value"});
    ck_table.AddRow({"wall time (journal on)", FormatDouble(ck_wall_s, 1) + " s"});
    ck_table.AddRow({"wall time (journal off)", FormatDouble(wall_s, 1) + " s"});
    ck_table.AddRow({"checkpoint overhead", FormatDouble(overhead, 3) + "x"});
    ck_table.Print(std::cout);
    json.Add("checkpoint_overhead", overhead, "ratio", label);
  }
  return 0;
}

}  // namespace

bench::Experiment bench::PopulationScale(const Options& options) {
  const SweepOptions sweep = Sweep(options);
  if (!options.Has("scale_users")) {
    return [sweep](BenchJson& json) {
      RunPopulationEffect(sweep, json);
      return 0;
    };
  }
  ScaleOptions scale;
  scale.users = options.GetInt("scale_users", 1, 1, std::numeric_limits<int>::max());
  scale.market_users = MarketUsers(options, scale.market_users);
  scale.max_resident_users = options.GetInt("max_resident_users", scale.max_resident_users, 0,
                                            std::numeric_limits<int>::max());
  scale.days = Days(options);
  scale.measure_checkpoint = options.GetBool("checkpoint_overhead", false);
  return [scale, sweep](BenchJson& json) { return RunScaleCeiling(scale, sweep, json); };
}

}  // namespace pad
