// Shared setup for the experiment-regeneration harnesses (bench_*).
//
// Every harness prints the rows/series of one table or figure from the
// paper's evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured). Populations are scaled down from
// the paper's 1,700 users so the full suite runs in minutes; pass a user
// count as argv[1] to run any harness at full scale, and `--threads N` to
// fan the sweep's independent runs across N threads (results are
// bit-identical for any N — see src/core/sweep.h).
#ifndef ADPAD_BENCH_BENCH_UTIL_H_
#define ADPAD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "src/common/bench_baseline.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"
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

inline int UsersFromArgv(int argc, char** argv, int default_users) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (std::strchr(argv[i], '=') == nullptr) {
        ++i;  // Space-separated flag: skip its value too.
      }
      continue;
    }
    const int users = std::atoi(argv[i]);
    if (users > 0) {
      return users;
    }
  }
  return default_users;
}

// `--threads N` (or `--threads=N`): concurrency of the sweep fan-out.
// Defaults to 1 (serial); 0 asks the hardware.
inline SweepOptions SweepOptionsFromArgv(int argc, char** argv) {
  SweepOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = std::atoi(argv[i + 1]);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.threads = std::atoi(argv[i] + 10);
    }
  }
  return options;
}

inline std::string Pct(double fraction, int precision = 1) {
  return FormatDouble(100.0 * fraction, precision) + "%";
}

// A 64-bit digest's halves as doubles for BenchRow JSON: every uint32 is
// exactly representable, so the JSON round trip and the compare are
// bit-precise.
inline double DigestHi(uint64_t digest) { return static_cast<double>(digest >> 32); }
inline double DigestLo(uint64_t digest) { return static_cast<double>(digest & 0xffffffffull); }

// Machine-readable output: `--json <path>` makes the harness also write its
// results as BenchRow JSON (src/common/bench_baseline.h). Collect rows while
// printing the human tables, then Flush() before exiting. Flush is also run
// by the destructor so early returns still write the file.
class BenchJson {
 public:
  BenchJson(int argc, char** argv, std::string bench) : bench_(std::move(bench)) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        path_ = argv[i + 1];
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      }
    }
  }
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

  // Writes the collected rows if --json was given. Returns false (after
  // printing the error) only on IO failure.
  bool Flush() {
    if (path_.empty() || flushed_) {
      return true;
    }
    flushed_ = true;
    std::string error;
    if (!SaveBenchRows(path_, rows_, &error)) {
      std::cerr << "bench --json: " << error << "\n";
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

}  // namespace bench
}  // namespace pad

#endif  // ADPAD_BENCH_BENCH_UTIL_H_
