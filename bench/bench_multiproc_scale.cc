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
// mismatch, as it does when `--min_speedup` (the CI acceptance gate, >= 3x
// at 8 workers) is not met.
//
// Peak memory is reported as `max_rss_mib`: the coordinator's own peak RSS
// maxed with the largest worker's (getrusage RUSAGE_CHILDREN after every
// worker is reaped) — the per-process residency cap is the reason to shard
// across processes at all, so the bench tracks it next to throughput. It is
// an ignored key in the bench_compare gate: informative, box-dependent.
//
// The checked-in BENCH_multiproc_scale.json baseline comes from:
//
//   $ bench_multiproc_scale --json BENCH_multiproc_scale.json
//
// which runs the full-scale acceptance row and the CI-sized row that
// perf-smoke regenerates on every push (--ci_only).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

struct MpBenchCase {
  std::string name;
  int64_t users = 0;
  int64_t market_users = 0;
  int processes = 8;
};

struct MpBenchOptions {
  bool ci_only = false;      // --ci_only: just the CI-sized row.
  double min_speedup = 0.0;  // --min_speedup: fail below this makespan win.
};

MpBenchOptions OptionsFromArgv(int argc, char** argv) {
  MpBenchOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci_only") == 0) {
      options.ci_only = true;
    } else if (std::strcmp(argv[i], "--min_speedup") == 0 && i + 1 < argc) {
      options.min_speedup = std::atof(argv[i + 1]);
    }
  }
  return options;
}

// Peak RSS in MiB across this process and the largest reaped worker
// (ru_maxrss is KiB on Linux).
double MaxRssMib() {
  struct rusage self {};
  struct rusage children {};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

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

  std::vector<double> worker_busy(static_cast<size_t>(run.result.worker_processes), 0.0);
  for (int m = 0; m < run.result.num_markets; ++m) {
    const int worker = run.result.market_workers[static_cast<size_t>(m)];
    PAD_CHECK(worker >= 0 && worker < run.result.worker_processes);
    worker_busy[static_cast<size_t>(worker)] +=
        run.result.market_busy_s[static_cast<size_t>(m)];
  }
  for (double busy : worker_busy) {
    run.makespan_s = std::max(run.makespan_s, busy);
    run.total_busy_s += busy;
  }
  return run;
}

int RunCase(const MpBenchCase& bench_case, double min_speedup, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(static_cast<int>(bench_case.users));
  config.population.horizon_s = 9.0 * kDay;  // 7 warmup + 2 scored.
  config.market_users = bench_case.market_users;

  const std::string label = "users=" + std::to_string(bench_case.users) +
                            " market_users=" + std::to_string(bench_case.market_users) +
                            " processes=" + std::to_string(bench_case.processes);
  PrintBanner(std::cout,
              "E22: multi-process scaling (" + bench_case.name + ": " + label + ")");

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string journal = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                              "/bench_multiproc_scale_" + bench_case.name + ".ckpt";
  const EngineRun single = RunAtProcessCount(config, 1, journal);
  const EngineRun pool = RunAtProcessCount(config, bench_case.processes, journal);

  // The process count is execution-only: a digest divergence here is an
  // exactly-once bug in the handoff, not a perf regression.
  if (single.result.combined_pad_digest != pool.result.combined_pad_digest ||
      single.result.combined_baseline_digest != pool.result.combined_baseline_digest) {
    std::cerr << "bench_multiproc_scale: 1-process and " << bench_case.processes
              << "-process runs diverged\n";
    return 1;
  }
  if (single.result.workers_died != 0 || pool.result.workers_died != 0) {
    std::cerr << "bench_multiproc_scale: workers died during a clean bench run\n";
    return 1;
  }

  const double speedup = pool.makespan_s > 0.0 ? single.makespan_s / pool.makespan_s : 0.0;
  const double users_per_sec = static_cast<double>(pool.result.total_users) / pool.wall_s;
  const double rss_mib = MaxRssMib();

  TextTable table({"metric", "1 process", std::to_string(bench_case.processes) + " processes"});
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
  std::cout << "mp_speedup (1-process makespan / " << bench_case.processes
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

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::cerr << "bench_multiproc_scale: mp_speedup " << FormatDouble(speedup, 2)
              << " below required " << FormatDouble(min_speedup, 2) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::MpBenchOptions options = pad::OptionsFromArgv(argc, argv);
  pad::bench::BenchJson json(argc, argv, "multiproc_scale");

  std::vector<pad::MpBenchCase> cases;
  if (!options.ci_only) {
    // Acceptance scale: 32 markets over 8 workers — enough queue depth that
    // the coordinator's first-fit assignment keeps every worker busy.
    pad::MpBenchCase full;
    full.name = "full";
    full.users = 3200;
    full.market_users = 100;
    cases.push_back(full);
  }
  // CI scale: same shape (32 markets, 8 workers), an eighth the users.
  pad::MpBenchCase ci;
  ci.name = "ci";
  ci.users = 640;
  ci.market_users = 20;
  cases.push_back(ci);

  for (const pad::MpBenchCase& bench_case : cases) {
    const int status = pad::RunCase(bench_case, options.min_speedup, json);
    if (status != 0) {
      return status;
    }
  }
  return json.Flush() ? 0 : 1;
}
