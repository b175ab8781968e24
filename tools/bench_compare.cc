// bench_compare — perf regression gate over two bench JSON files (the
// second example is one command, wrapped):
//
//   $ bench_compare baseline.json candidate.json
//   $ bench_compare BENCH_population_scale.json /tmp/new.json
//         --default_tol 0.05 --tol sold_count=0.10 --ignore users_per_s
//
// Both files are BenchRow arrays as written by `adpad_bench <experiment>
// json=<path>` or `bench_micro --json <path>` (see
// src/common/bench_baseline.h). Rows are matched by (bench, metric, config);
// each matched pair must agree within the metric's relative tolerance, which
// must parse in full as a finite number >= 0.
//
// Exit codes: 0 all metrics within tolerance; 1 a metric drifted past its
// tolerance or vanished from the candidate; 2 usage, IO, or parse errors, a
// malformed tolerance, or a gate that compares nothing (--config selects no
// baseline row, or every selected row is ignored).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/bench_baseline.h"
#include "src/common/stats.h"
#include "src/common/table.h"

namespace pad {
namespace {

const char* StatusName(BenchDiffStatus status) {
  switch (status) {
    case BenchDiffStatus::kOk: return "ok";
    case BenchDiffStatus::kDrifted: return "DRIFTED";
    case BenchDiffStatus::kMissing: return "MISSING";
    case BenchDiffStatus::kExtra: return "extra";
    case BenchDiffStatus::kIgnored: return "ignored";
  }
  return "?";
}

int Usage() {
  std::cerr << "usage: bench_compare <baseline.json> <candidate.json>\n"
            << "         [--default_tol R] [--tol metric=R]... [--ignore metric]...\n"
            << "         [--config \"exact config string\"]\n";
  return 2;
}

// Parses `text` whole as a finite relative tolerance >= 0: "1%" or "abc"
// must not read as a number.
bool ParseTolerance(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::cerr << "bench_compare: a tolerance must be a finite number >= 0, got '" << text
              << "'\n";
    return false;
  }
  *out = value;
  return true;
}

int Run(int argc, char** argv) {
  std::vector<std::string> files;
  BenchCompareOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--default_tol" && i + 1 < argc) {
      if (!ParseTolerance(argv[++i], &options.default_tolerance)) {
        return 2;
      }
    } else if (arg == "--tol" && i + 1 < argc) {
      const std::string spec = argv[++i];
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "bench_compare: --tol wants metric=R, got '" << spec << "'\n";
        return 2;
      }
      if (!ParseTolerance(spec.substr(eq + 1), &options.metric_tolerance[spec.substr(0, eq)])) {
        return 2;
      }
    } else if (arg == "--ignore" && i + 1 < argc) {
      options.ignore_metrics.insert(argv[++i]);
    } else if (arg == "--config" && i + 1 < argc) {
      options.config_filter = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "bench_compare: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    return Usage();
  }

  std::vector<BenchRow> baseline;
  std::vector<BenchRow> candidate;
  std::string error;
  if (!LoadBenchRows(files[0], &baseline, &error) ||
      !LoadBenchRows(files[1], &candidate, &error)) {
    std::cerr << "bench_compare: " << error << "\n";
    return 2;
  }

  const std::vector<BenchDiff> diffs = CompareBenchRows(baseline, candidate, options);
  // A filter that drifted from the rows' config label, or an ignore list
  // that covers everything, would otherwise pass having compared nothing.
  const bool gated = std::any_of(diffs.begin(), diffs.end(), [](const BenchDiff& diff) {
    return diff.status != BenchDiffStatus::kIgnored && diff.status != BenchDiffStatus::kExtra;
  });
  if (!gated) {
    std::cerr << "bench_compare: no baseline row is gated (each is filtered out by --config "
                 "or ignored)\n";
    return 2;
  }
  TextTable table({"bench", "metric", "config", "baseline", "candidate", "rel_diff",
                   "tol", "status"});
  for (const BenchDiff& diff : diffs) {
    table.AddRow({diff.bench, diff.metric, diff.config, FormatDouble(diff.baseline, 6),
                  FormatDouble(diff.candidate, 6), FormatDouble(diff.rel_diff, 4),
                  FormatDouble(diff.tolerance, 4), StatusName(diff.status)});
  }
  table.Print(std::cout);

  if (BenchCompareFailed(diffs)) {
    std::cout << "\nFAIL: at least one metric drifted past tolerance or went missing\n";
    return 1;
  }
  std::cout << "\nOK: " << diffs.size() << " rows within tolerance\n";
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) { return pad::Run(argc, argv); }
