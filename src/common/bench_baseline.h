// Machine-readable bench output and baseline comparison.
//
// Every bench experiment can emit its results as a JSON array of rows
//
//   [{"bench": "population_scale", "metric": "users_per_s",
//     "value": 1234.5, "unit": "users/s", "config": "users=2000 days=9"}]
//
// via `adpad_bench <experiment> json=<path>` (see bench/bench_util.h). A
// checked-in baseline file (BENCH_*.json) plus tools/bench_compare turn any
// experiment into a perf regression gate: compare rows metric-by-metric under
// a per-metric relative tolerance and exit nonzero when a metric drifted or
// disappeared.
#ifndef ADPAD_SRC_COMMON_BENCH_BASELINE_H_
#define ADPAD_SRC_COMMON_BENCH_BASELINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace pad {

struct BenchRow {
  std::string bench;   // Harness name, e.g. "population_scale".
  std::string metric;  // Metric name, unique within (bench, config).
  double value = 0.0;
  std::string unit;    // "users/s", "J", "fraction", "count", ...
  std::string config;  // Free-form "key=value key=value" run description.
};

// Serializes rows as the pretty-printed JSON array above (stable order:
// exactly the order given).
std::string BenchRowsToJson(const std::vector<BenchRow>& rows);

// Parses a baseline file's text. Returns false (and sets `error`) on
// malformed JSON or rows missing required fields; never aborts.
bool BenchRowsFromJson(const std::string& text, std::vector<BenchRow>* rows,
                       std::string* error);

// File wrappers around the two above. Load returns false on IO or parse
// errors; Save returns false on IO errors.
bool LoadBenchRows(const std::string& path, std::vector<BenchRow>* rows, std::string* error);
bool SaveBenchRows(const std::string& path, const std::vector<BenchRow>& rows,
                   std::string* error);

struct BenchCompareOptions {
  // Relative tolerance applied to metrics with no per-metric entry.
  double default_tolerance = 0.05;
  // Per-metric overrides, keyed by metric name.
  std::map<std::string, double> metric_tolerance;
  // Metrics excluded from comparison entirely (e.g. wall-clock throughput on
  // shared CI hardware).
  std::set<std::string> ignore_metrics;
  // When non-empty, only rows whose config string matches exactly take part
  // in the comparison (both sides). Lets one baseline file carry several
  // scales — e.g. the CI smoke scale next to the full-scale E17 record —
  // while a reduced-scale run is diffed against only its own rows.
  std::string config_filter;
};

enum class BenchDiffStatus {
  kOk,         // Within tolerance.
  kDrifted,    // Relative difference exceeds the tolerance.
  kMissing,    // In the baseline but absent from the candidate.
  kExtra,      // In the candidate only — reported, never a failure.
  kIgnored,    // Excluded by ignore_metrics.
};

struct BenchDiff {
  std::string bench;
  std::string metric;
  std::string config;
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_diff = 0.0;
  double tolerance = 0.0;
  BenchDiffStatus status = BenchDiffStatus::kOk;
};

// Matches rows by (bench, metric, config) and scores each baseline row
// against its candidate. rel_diff = |c - b| / max(|b|, |c|), 0 when both are
// zero. Baseline rows with no candidate are kMissing (a failure: the metric
// silently vanished); candidate-only rows are kExtra (informational).
std::vector<BenchDiff> CompareBenchRows(const std::vector<BenchRow>& baseline,
                                        const std::vector<BenchRow>& candidate,
                                        const BenchCompareOptions& options);

// Whether any diff is a failure (kDrifted or kMissing).
bool BenchCompareFailed(const std::vector<BenchDiff>& diffs);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_BENCH_BASELINE_H_
