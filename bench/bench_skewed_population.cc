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
// exits non-zero on a mismatch, as it does when `--min_speedup` (the CI
// acceptance gate) is not met.
//
// The checked-in BENCH_skewed_population.json baseline comes from:
//
//   $ bench_skewed_population --json BENCH_skewed_population.json
//
// which runs the full-scale row (3200 users, heavy markets ~100x light) and
// the CI-sized row perf-smoke regenerates on every push.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

struct SkewBenchCase {
  std::string name;
  int64_t users = 0;
  int64_t market_users = 0;
  double skew_fraction = 0.125;
  double skew_multiplier = 100.0;
  int workers = 8;
};

struct SkewBenchOptions {
  // Default: the checked-in baseline — full-scale acceptance row + CI row.
  // --ci_only keeps just the CI-sized row (what perf-smoke runs).
  bool ci_only = false;
  double min_speedup = 0.0;  // --min_speedup: fail below this stealing win.
};

SkewBenchOptions OptionsFromArgv(int argc, char** argv) {
  SkewBenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci_only") == 0) {
      options.ci_only = true;
    } else if (std::strcmp(argv[i], "--min_speedup") == 0 && i + 1 < argc) {
      options.min_speedup = std::atof(argv[i + 1]);
    }
  }
  return options;
}

struct ScheduleRun {
  ShardedComparison result;
  double wall_s = 0.0;
  double makespan_s = 0.0;   // max over workers of sum(market_busy_s).
  double total_busy_s = 0.0;
  double imbalance = 1.0;    // makespan / (total / workers).
};

ScheduleRun RunSchedule(const PadConfig& config, const SkewBenchCase& bench_case,
                        ScheduleMode schedule) {
  ShardEngineOptions options;
  options.threads = bench_case.workers;
  options.schedule = schedule;
  options.event_digests = false;
  PAD_CHECK(ValidateShardOptions(config, options).empty());

  ScheduleRun run;
  const auto start = std::chrono::steady_clock::now();
  run.result = RunShardedComparison(config, options);
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  std::vector<double> worker_busy(static_cast<size_t>(run.result.workers_used), 0.0);
  for (int m = 0; m < run.result.num_markets; ++m) {
    const int worker = run.result.market_workers[static_cast<size_t>(m)];
    PAD_CHECK(worker >= 0 && worker < run.result.workers_used);
    worker_busy[static_cast<size_t>(worker)] += run.result.market_busy_s[static_cast<size_t>(m)];
  }
  for (double busy : worker_busy) {
    run.makespan_s = std::max(run.makespan_s, busy);
    run.total_busy_s += busy;
  }
  const double ideal = run.total_busy_s / static_cast<double>(run.result.workers_used);
  run.imbalance = ideal > 0.0 ? run.makespan_s / ideal : 1.0;
  return run;
}

int RunCase(const SkewBenchCase& bench_case, double min_speedup, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(static_cast<int>(bench_case.users));
  config.population.horizon_s = 9.0 * kDay;  // 7 warmup + 2 scored.
  config.market_users = bench_case.market_users;
  config.population.skew_heavy_fraction = bench_case.skew_fraction;
  config.population.skew_rate_multiplier = bench_case.skew_multiplier;

  const std::string label = "users=" + std::to_string(bench_case.users) +
                            " market_users=" + std::to_string(bench_case.market_users) +
                            " skew=" + FormatDouble(bench_case.skew_fraction, 3) + "x" +
                            FormatDouble(bench_case.skew_multiplier, 0) +
                            " workers=" + std::to_string(bench_case.workers);
  PrintBanner(std::cout, "E19: work stealing under skew (" + bench_case.name + ": " + label + ")");

  const ScheduleRun fixed = RunSchedule(config, bench_case, ScheduleMode::kStatic);
  const ScheduleRun stealing = RunSchedule(config, bench_case, ScheduleMode::kStealing);

  // The schedule is execution-only: a digest divergence here is a scheduler
  // bug, not a perf regression.
  if (fixed.result.combined_pad_digest != stealing.result.combined_pad_digest ||
      fixed.result.combined_baseline_digest != stealing.result.combined_baseline_digest) {
    std::cerr << "bench_skewed_population: static and stealing runs diverged\n";
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

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cerr << "bench_skewed_population: steal_speedup " << FormatDouble(speedup, 2)
              << " below required " << FormatDouble(min_speedup, 2) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::SkewBenchOptions options = pad::OptionsFromArgv(argc, argv);
  pad::bench::BenchJson json(argc, argv, "skewed_population");

  std::vector<pad::SkewBenchCase> cases;
  if (!options.ci_only) {
    // Acceptance scale: 32 markets, the first 4 carrying ~100x the cost; a
    // static 8-worker split hands all four to worker 0.
    pad::SkewBenchCase full;
    full.name = "full";
    full.users = 3200;
    full.market_users = 100;
    cases.push_back(full);
  }
  // CI scale: same shape (32 markets, 4 heavy at ~100x), an eighth the users.
  pad::SkewBenchCase ci;
  ci.name = "ci";
  ci.users = 640;
  ci.market_users = 20;
  cases.push_back(ci);

  for (const pad::SkewBenchCase& bench_case : cases) {
    const int status = pad::RunCase(bench_case, options.min_speedup, json);
    if (status != 0) {
      return status;
    }
  }
  return json.Flush() ? 0 : 1;
}
