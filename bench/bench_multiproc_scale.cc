// E22 — Multi-process scaling: the same market queue executed by forked
// worker processes (src/core/multiproc_engine.h) at 1 worker and at 8, with
// the win reported as *makespan speedup*: per-worker sums of the thread-CPU
// cost of each market (ShardedComparison::market_busy_s), speedup =
// makespan(p=1) / makespan(p=8). As in E19, thread-CPU makespan is what
// wall clock becomes on a machine with enough cores, and it stays faithful
// on the oversubscribed or single-core boxes CI runs on, where the wall
// clock of an 8-process run measures the OS scheduler instead of the
// coordinator. Wall times are reported but never gated.
//
// The two runs must agree digest-for-digest — the bench doubles as an
// end-to-end check of the exactly-once handoff and exits non-zero on a
// mismatch, as it does when `min_speedup=` (the CI acceptance gate, >= 3x
// at 8 workers) is not met.
//
// Peak memory is reported as `max_rss_mib`: the coordinator's own peak RSS
// maxed with the largest worker's (PeakRssMib, read after every worker is
// reaped) — the per-process residency cap is the reason to shard
// across processes at all, so the bench tracks it next to throughput. It is
// an ignored key in the bench_compare gate: informative, box-dependent.
//
// The checked-in BENCH_multiproc_scale.json baseline comes from:
//
//   $ adpad_bench multiproc_scale json=BENCH_multiproc_scale.json
//
// which runs the full-scale acceptance row and the CI-sized row that
// perf-smoke regenerates on every push (`ci_only=1`) — E19's two cases
// (bench::SpeedupExperiment).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

// Every case runs 32 markets at 1 worker process and at this many.
constexpr int kProcesses = 8;

struct EngineRun {
  ShardedComparison result;
  double wall_s = 0.0;
  double makespan_s = 0.0;  // max over workers of sum(market_busy_s).
  double total_busy_s = 0.0;
};

EngineRun RunAtProcessCount(const PadConfig& config, int processes,
                            const std::string& journal) {
  // A leftover journal would replay markets instead of simulating them and
  // fake the timing; every measured run starts from a clean file.
  std::remove(journal.c_str());
  ShardEngineOptions options;
  options.processes = processes;
  options.event_digests = false;
  options.checkpoint_path = journal;

  EngineRun run;
  const auto start = std::chrono::steady_clock::now();
  StatusOr<ShardedComparison> result = RunShardedResumable(config, options);
  run.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  PAD_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  run.result = *std::move(result);
  PAD_CHECK(run.result.resumed_markets == 0);
  std::remove(journal.c_str());

  run.makespan_s = bench::Makespan(run.result, run.result.worker_processes, &run.total_busy_s);
  return run;
}

int RunCase(const bench::SpeedupCase& bench_case, bench::BenchJson& json, double* speedup_out) {
  PadConfig config = bench::StandardConfig(bench_case.users);
  config.population.horizon_s = 9.0 * kDay;  // 7 warmup + 2 scored.
  config.market_users = bench_case.market_users;

  const std::string label = "users=" + std::to_string(bench_case.users) +
                            " market_users=" + std::to_string(bench_case.market_users) +
                            " processes=" + std::to_string(kProcesses);
  PrintBanner(std::cout,
              "E22: multi-process scaling (" + bench_case.name + ": " + label + ")");

  const std::string journal = bench::JournalPath("multiproc_scale_" + bench_case.name);
  const EngineRun single = RunAtProcessCount(config, 1, journal);
  const EngineRun pool = RunAtProcessCount(config, kProcesses, journal);

  // The process count is execution-only: a digest divergence here is an
  // exactly-once bug in the handoff, not a perf regression.
  if (single.result.combined_pad_digest != pool.result.combined_pad_digest ||
      single.result.combined_baseline_digest != pool.result.combined_baseline_digest) {
    std::cerr << "multiproc_scale: 1-process and " << kProcesses << "-process runs diverged\n";
    return 1;
  }
  if (single.result.workers_died != 0 || pool.result.workers_died != 0) {
    std::cerr << "multiproc_scale: workers died during a clean bench run\n";
    return 1;
  }

  const double speedup = pool.makespan_s > 0.0 ? single.makespan_s / pool.makespan_s : 0.0;
  const double users_per_sec = static_cast<double>(pool.result.total_users) / pool.wall_s;
  const double rss_mib = PeakRssMib();

  TextTable table({"metric", "1 process", std::to_string(kProcesses) + " processes"});
  table.AddRow({"makespan (thread-CPU)", FormatDouble(single.makespan_s, 2) + " s",
                FormatDouble(pool.makespan_s, 2) + " s"});
  table.AddRow({"total busy", FormatDouble(single.total_busy_s, 2) + " s",
                FormatDouble(pool.total_busy_s, 2) + " s"});
  table.AddRow({"wall (this box)", FormatDouble(single.wall_s, 2) + " s",
                FormatDouble(pool.wall_s, 2) + " s"});
  table.AddRow({"workers used", std::to_string(single.result.workers_used),
                std::to_string(pool.result.workers_used)});
  table.AddRow({"markets reassigned", std::to_string(single.result.markets_reassigned),
                std::to_string(pool.result.markets_reassigned)});
  table.Print(std::cout);
  std::cout << "mp_speedup (1-process makespan / " << kProcesses
            << "-process makespan): " << FormatDouble(speedup, 2) << "x\n"
            << "max_rss_mib (coordinator or largest worker): " << FormatDouble(rss_mib, 1)
            << " MiB\n";

  // Deterministic rows (tight tolerance in the gate) ...
  json.AddComparison(label, pool.result.totals);
  json.Add("sessions", static_cast<double>(pool.result.total_sessions), "count", label);
  // ... the makespan rows (thread-CPU, stable enough for a wide-tolerance
  // gate) ...
  json.Add("mp_makespan_1p_s", single.makespan_s, "s", label);
  json.Add("mp_makespan_np_s", pool.makespan_s, "s", label);
  json.Add("mp_speedup", speedup, "ratio", label);
  // ... and the box-dependent rows, ignored in CI.
  json.Add("users_per_sec", users_per_sec, "users/s", label);
  json.Add("wall_1p_s", single.wall_s, "s", label);
  json.Add("wall_np_s", pool.wall_s, "s", label);
  json.Add("max_rss_mib", rss_mib, "MiB", label);
  *speedup_out = speedup;
  return 0;
}

}  // namespace

bench::Experiment bench::MultiprocScale(const Options& options) {
  return SpeedupExperiment(options, "multiproc_scale", "mp_speedup", RunCase);
}

}  // namespace pad
