// E19 — Scheduler under skew: a heavy-cluster population (the first
// `skew_fraction` of users carry `skew_multiplier` times the session rate)
// concentrates simulation cost in the first markets — exactly the shape that
// starves a static market partition, where the worker owning the heavy
// prefix becomes the critical path while the rest idle. This harness runs
// the same skewed workload under both schedules (src/core/shard_engine.h)
// and reports the work-stealing win.
//
// Cost is measured per market on the thread CPU clock (ShardedComparison::
// market_busy_s), so the headline is *makespan*: the largest per-worker sum
// of market costs. Makespan is what wall clock becomes on a machine with
// enough cores; measuring it from thread-CPU time keeps the number faithful
// on an oversubscribed or single-core box, where raw wall clock of an
// 8-thread run measures the OS scheduler instead of ours. Wall times are
// reported too, but never gated.
//
// The two runs must also agree digest-for-digest — the bench doubles as an
// end-to-end check of the scheduler half of the determinism contract and
// exits non-zero on a mismatch, as it does when `min_speedup=` (the CI
// acceptance gate) is not met.
//
// The checked-in BENCH_skewed_population.json baseline comes from:
//
//   $ adpad_bench skewed_population json=BENCH_skewed_population.json
//
// which runs the full-scale row (3200 users, heavy markets ~100x light) and
// the CI-sized row perf-smoke regenerates on every push (`ci_only=1`); the
// two cases are E22's too (bench::SpeedupExperiment).
#include <chrono>
#include <string>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

// Every case skews the same way: the first eighth of the users carry 100x
// the session rate, and 8 workers run the markets.
constexpr double kSkewFraction = 0.125;
constexpr double kSkewMultiplier = 100.0;
constexpr int kWorkers = 8;

struct ScheduleRun {
  ShardedComparison result;
  double wall_s = 0.0;
  double makespan_s = 0.0;   // max over workers of sum(market_busy_s).
  double total_busy_s = 0.0;
  double imbalance = 1.0;    // makespan / (total / workers).
};

ScheduleRun RunSchedule(const PadConfig& config, ScheduleMode schedule) {
  ShardEngineOptions options;
  options.threads = kWorkers;
  options.schedule = schedule;
  options.event_digests = false;
  PAD_CHECK(ValidateShardOptions(config, options).empty());

  ScheduleRun run;
  const auto start = std::chrono::steady_clock::now();
  run.result = RunShardedComparison(config, options);
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  run.makespan_s = bench::Makespan(run.result, run.result.workers_used, &run.total_busy_s);
  const double ideal = run.total_busy_s / static_cast<double>(run.result.workers_used);
  run.imbalance = ideal > 0.0 ? run.makespan_s / ideal : 1.0;
  return run;
}

int RunCase(const bench::SpeedupCase& bench_case, bench::BenchJson& json, double* speedup_out) {
  PadConfig config = bench::StandardConfig(bench_case.users);
  config.population.horizon_s = 9.0 * kDay;  // 7 warmup + 2 scored.
  config.market_users = bench_case.market_users;
  config.population.skew_heavy_fraction = kSkewFraction;
  config.population.skew_rate_multiplier = kSkewMultiplier;

  const std::string label = "users=" + std::to_string(bench_case.users) +
                            " market_users=" + std::to_string(bench_case.market_users) +
                            " skew=" + FormatDouble(kSkewFraction, 3) + "x" +
                            FormatDouble(kSkewMultiplier, 0) +
                            " workers=" + std::to_string(kWorkers);
  PrintBanner(std::cout, "E19: work stealing under skew (" + bench_case.name + ": " + label + ")");

  const ScheduleRun fixed = RunSchedule(config, ScheduleMode::kStatic);
  const ScheduleRun stealing = RunSchedule(config, ScheduleMode::kStealing);

  // The schedule is execution-only: a digest divergence here is a scheduler
  // bug, not a perf regression.
  if (fixed.result.combined_pad_digest != stealing.result.combined_pad_digest ||
      fixed.result.combined_baseline_digest != stealing.result.combined_baseline_digest) {
    std::cerr << "skewed_population: static and stealing runs diverged\n";
    return 1;
  }

  const double speedup = stealing.makespan_s > 0.0 ? fixed.makespan_s / stealing.makespan_s : 0.0;
  const double users_per_sec =
      static_cast<double>(stealing.result.total_users) / stealing.wall_s;

  TextTable table({"metric", "static", "stealing"});
  table.AddRow({"makespan (thread-CPU)", FormatDouble(fixed.makespan_s, 2) + " s",
                FormatDouble(stealing.makespan_s, 2) + " s"});
  table.AddRow({"imbalance (makespan/ideal)", FormatDouble(fixed.imbalance, 2),
                FormatDouble(stealing.imbalance, 2)});
  table.AddRow({"total busy", FormatDouble(fixed.total_busy_s, 2) + " s",
                FormatDouble(stealing.total_busy_s, 2) + " s"});
  table.AddRow({"wall (this box)", FormatDouble(fixed.wall_s, 2) + " s",
                FormatDouble(stealing.wall_s, 2) + " s"});
  table.AddRow({"markets stolen", "0", std::to_string(stealing.result.tasks_stolen)});
  table.Print(std::cout);
  std::cout << "steal_speedup (static makespan / stealing makespan): "
            << FormatDouble(speedup, 2) << "x\n";

  // Deterministic rows (tight tolerance in the gate) ...
  json.AddComparison(label, stealing.result.totals);
  json.Add("sessions", static_cast<double>(stealing.result.total_sessions), "count", label);
  // ... and the scheduler rows. Makespans and speedup are thread-CPU based,
  // so they are stable enough to gate with a wide tolerance; wall times are
  // box noise and stay ignored in CI.
  json.Add("static_makespan_s", fixed.makespan_s, "s", label);
  json.Add("stealing_makespan_s", stealing.makespan_s, "s", label);
  json.Add("steal_speedup", speedup, "ratio", label);
  json.Add("static_imbalance", fixed.imbalance, "ratio", label);
  json.Add("stealing_imbalance", stealing.imbalance, "ratio", label);
  json.Add("tasks_stolen", static_cast<double>(stealing.result.tasks_stolen), "count", label);
  json.Add("users_per_sec", users_per_sec, "users/s", label);
  json.Add("wall_static_s", fixed.wall_s, "s", label);
  json.Add("wall_stealing_s", stealing.wall_s, "s", label);
  *speedup_out = speedup;
  return 0;
}

}  // namespace

bench::Experiment bench::SkewedPopulation(const Options& options) {
  return SpeedupExperiment(options, "skewed_population", "steal_speedup", RunCase);
}

}  // namespace pad
