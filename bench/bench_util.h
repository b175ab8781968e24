// Shared setup for the experiment bodies that `adpad_bench` dispatches to.
//
// Every experiment prints the rows/series of one table or figure from the
// paper's evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured). Populations are scaled down from
// the paper's 1,700 users so the full suite runs in minutes; `users=N` runs
// an experiment at full scale, and `threads=N` fans a sweep's independent
// runs across N threads (results are bit-identical for any N — see
// src/core/sweep.h).
#ifndef ADPAD_BENCH_BENCH_UTIL_H_
#define ADPAD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/common/bench_baseline.h"
#include "src/common/check.h"
#include "src/common/options.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"

namespace pad {
namespace bench {

// The standard evaluation config: 3 trace weeks (1 warmup + 2 scored).
inline PadConfig StandardConfig(int num_users) {
  PadConfig config;
  config.population.num_users = num_users;
  config.population.horizon_s = 21.0 * kDay;
  config.warmup_days = 7;
  // Demand scales with supply so the market never starves the comparison.
  config.campaigns.arrivals_per_day = std::max(50.0, 1.5 * num_users);
  return config;
}

inline std::string Pct(double fraction, int precision = 1) {
  return FormatDouble(100.0 * fraction, precision) + "%";
}

// A 64-bit digest's halves as doubles for BenchRow JSON: every uint32 is
// exactly representable, so the JSON round trip and the compare are
// bit-precise.
inline double DigestHi(uint64_t digest) { return static_cast<double>(digest >> 32); }
inline double DigestLo(uint64_t digest) { return static_cast<double>(digest & 0xffffffffull); }

// Machine-readable output: a non-empty `path` makes the experiment also
// write its results there as BenchRow JSON (src/common/bench_baseline.h).
// Collect rows while printing the human tables, then Flush() before exiting.
// Flush is also run by the destructor so early returns still write the file.
class BenchJson {
 public:
  BenchJson(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}
  ~BenchJson() { Flush(); }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& metric, double value, const std::string& unit,
           const std::string& config) {
    rows_.push_back(BenchRow{bench_, metric, value, unit, config});
  }

  // The standard comparison metrics every end-to-end harness reports.
  void AddComparison(const std::string& config, const Comparison& comparison) {
    Add("ad_energy_savings", comparison.AdEnergySavings(), "fraction", config);
    Add("cache_hit_rate", comparison.pad.service.CacheHitRate(), "fraction", config);
    Add("sla_violation_rate", comparison.pad.ledger.SlaViolationRate(), "fraction", config);
    Add("revenue_loss_rate", comparison.pad.ledger.RevenueLossRate(), "fraction", config);
    Add("mean_replication", comparison.pad.MeanReplication(), "replicas", config);
    Add("revenue_ratio", comparison.RevenueRatio(), "fraction", config);
  }

  // Writes the collected rows if a path was given. Returns false (after
  // printing the error) only on IO failure.
  bool Flush() {
    if (path_.empty() || flushed_) {
      return true;
    }
    flushed_ = true;
    std::string error;
    if (!SaveBenchRows(path_, rows_, &error)) {
      std::cerr << bench_ << " json: " << error << "\n";
      return false;
    }
    std::cout << "wrote " << rows_.size() << " bench rows to " << path_ << "\n";
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::vector<BenchRow> rows_;
  bool flushed_ = false;
};

// Summary row shared by the end-to-end sweeps.
inline std::vector<std::string> MetricsRow(const std::string& label,
                                           const BaselineResult& baseline,
                                           const PadRunResult& pad) {
  Comparison comparison{baseline, pad};
  return {label,
          Pct(comparison.AdEnergySavings()),
          Pct(pad.service.CacheHitRate()),
          Pct(pad.ledger.SlaViolationRate(), 2),
          Pct(pad.ledger.RevenueLossRate(), 2),
          FormatDouble(pad.MeanReplication(), 2),
          Pct(comparison.RevenueRatio())};
}

inline std::vector<std::string> MetricsHeader(const std::string& knob) {
  return {knob,       "ad_energy_savings", "cache_hit", "sla_violation",
          "rev_loss", "replication",       "revenue_vs_baseline"};
}

// An experiment reads its keys from the command line's Options and returns
// the run, so adpad_bench can refuse a bad or unread key before any work
// starts. The run returns the process exit status.
using Experiment = std::function<int(BenchJson& json)>;

// The keys several experiments share, each with its one range.
inline int Users(const Options& options, int fallback) {
  return options.GetInt("users", fallback, 1, std::numeric_limits<int>::max());
}
inline int Threads(const Options& options) { return options.GetInt("threads", 1, 0, 1024); }
inline SweepOptions Sweep(const Options& options) { return SweepOptions{Threads(options)}; }
inline int MarketUsers(const Options& options, int fallback) {
  return options.GetInt("market_users", fallback, 0, std::numeric_limits<int>::max());
}
inline double Days(const Options& options) { return options.GetDouble("days", 9.0, 1.0, 3650.0); }

// The two shapes most experiments share, each with a run that cannot fail:
// users= alone (default `fallback`), or a sweep's users= (default 250) and
// threads=.
inline Experiment UsersExperiment(const Options& options, int fallback,
                                  void (*run)(int users, BenchJson& json)) {
  return [users = Users(options, fallback), run](BenchJson& json) {
    run(users, json);
    return 0;
  };
}
inline Experiment SweepExperiment(const Options& options,
                                  void (*run)(int users, const SweepOptions& sweep,
                                              BenchJson& json)) {
  return [users = Users(options, 250), sweep = Sweep(options), run](BenchJson& json) {
    run(users, sweep, json);
    return 0;
  };
}

// E19 and E22 run the same two populations: the full-scale acceptance case
// (3200 users in 32 markets of 100) and the CI case perf-smoke regenerates
// (640 users in 32 markets of 20). `ci_only=1` keeps just the CI case;
// `min_speedup=X` fails the run once a case's makespan speedup falls below X.
struct SpeedupCase {
  std::string name;
  int users = 0;
  int market_users = 0;
};

// Runs one case: prints its table, adds its rows, sets *speedup, and
// returns 0 or the exit status of a failed run.
using SpeedupCaseRun = int (*)(const SpeedupCase& bench_case, BenchJson& json, double* speedup);

inline Experiment SpeedupExperiment(const Options& options, std::string bench,
                                    std::string metric, SpeedupCaseRun run_case) {
  const bool ci_only = options.GetBool("ci_only", false);
  const double min_speedup =
      options.GetDouble("min_speedup", 0.0, 0.0, std::numeric_limits<double>::infinity());
  return [=](BenchJson& json) {
    std::vector<SpeedupCase> cases;
    if (!ci_only) {
      cases.push_back({"full", 3200, 100});
    }
    cases.push_back({"ci", 640, 20});
    for (const SpeedupCase& bench_case : cases) {
      double speedup = 0.0;
      if (const int status = run_case(bench_case, json, &speedup); status != 0) {
        return status;
      }
      if (min_speedup > 0.0 && speedup < min_speedup) {
        std::cerr << bench << ": " << metric << " " << FormatDouble(speedup, 2)
                  << " below required " << FormatDouble(min_speedup, 2) << "\n";
        return 1;
      }
    }
    return 0;
  };
}

// A run's makespan: the largest per-worker sum of market_busy_s (thread-CPU
// seconds), folded over the `workers` that ran its markets. The sum over all
// workers lands in *total_busy_s.
inline double Makespan(const ShardedComparison& result, int workers, double* total_busy_s) {
  std::vector<double> worker_busy(static_cast<size_t>(workers), 0.0);
  for (int m = 0; m < result.num_markets; ++m) {
    const int worker = result.market_workers[static_cast<size_t>(m)];
    PAD_CHECK(worker >= 0 && worker < workers);
    worker_busy[static_cast<size_t>(worker)] += result.market_busy_s[static_cast<size_t>(m)];
  }
  double makespan = 0.0;
  *total_busy_s = 0.0;
  for (double busy : worker_busy) {
    makespan = std::max(makespan, busy);
    *total_busy_s += busy;
  }
  return makespan;
}

// The experiments adpad_bench dispatches to, one per bench_<name>.cc.
Experiment EnergyBreakdown(const Options& options);        // E1
Experiment TailEnergy(const Options& options);             // E2
Experiment TraceCharacterization(const Options& options);  // E3
Experiment Predictability(const Options& options);         // E4
Experiment PrefetchSavings(const Options& options);        // E5
Experiment Overbooking(const Options& options);            // E6
Experiment Tradeoff(const Options& options);               // E7
Experiment DeadlineSensitivity(const Options& options);    // E8
Experiment RadioModel(const Options& options);             // E9
Experiment PopulationScale(const Options& options);        // E10, E17
Experiment PredictionNoise(const Options& options);        // E11
Experiment Targeting(const Options& options);              // E13
Experiment WifiOffload(const Options& options);            // E14
Experiment ModelCalibration(const Options& options);       // E15
Experiment FaultTolerance(const Options& options);         // E16
Experiment SkewedPopulation(const Options& options);       // E19
Experiment HotPath(const Options& options);                // E20
Experiment ServingLatency(const Options& options);         // E21
Experiment MultiprocScale(const Options& options);         // E22
Experiment ServingChaos(const Options& options);           // E23

}  // namespace bench
}  // namespace pad

#endif  // ADPAD_BENCH_BENCH_UTIL_H_
