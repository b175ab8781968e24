// adpad_perfbench — the repository benchmark's binary.
//
//   adpad_perfbench --workload sim-m2000|sim-m500-mp|serve-open --seed N
//                   --seconds S --trace 0|1 [--scale full|tiny]
//                   [--work-dir DIR] [--spec BENCHMARK.json] [--commit ID]
//                   [--perturb-pin]
//
// Prints one provenance line, then as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the "end_to_end" list of --spec, with --trace 1 its "per_layer" list. A failed
// correctness check prints its reason on stderr and exits 1 with no result;
// a malformed command line exits 2. perfbench/README.md documents every
// workload and metric; perfbench/run.py builds this binary and runs it.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>

#include "perfbench/report.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

bool ParseUnsigned(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value > max) {
    return false;
  }
  *out = value;
  return true;
}

// Strict: every flag known, given once, with a well-formed value; the four
// every run passes are required.
bool ParseArgs(int argc, char** argv, RunArgs* args, std::string* commit, std::string* error) {
  static const std::set<std::string> kWorkloads = {"sim-m2000", "sim-m500-mp", "serve-open"};
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-pin") {
      args->perturb_pin = true;
      continue;
    }
    static const std::set<std::string> kValued = {"--workload", "--seed",     "--seconds",
                                                  "--trace",    "--scale",    "--work-dir",
                                                  "--spec",     "--commit"};
    if (kValued.count(flag) == 0) {
      *error = "unknown argument '" + flag + "'";
      return false;
    }
    if (!seen.insert(flag).second) {
      *error = flag + " given twice";
      return false;
    }
    if (i + 1 >= argc) {
      *error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      if (kWorkloads.count(value) == 0) {
        *error = "unknown workload '" + value + "' (sim-m2000, sim-m500-mp, serve-open)";
        return false;
      }
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, UINT64_MAX, &number)) {
        *error = "--seed must be an unsigned integer, got '" + value + "'";
        return false;
      }
      args->seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, 3600, &number) || number < 1) {
        *error = "--seconds must be an integer in [1, 3600], got '" + value + "'";
        return false;
      }
      args->seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace must be 0 or 1, got '" + value + "'";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") {
        *error = "--scale must be full or tiny, got '" + value + "'";
        return false;
      }
      args->scale = value;
    } else if (flag == "--work-dir" || flag == "--spec") {
      if (value.empty()) {
        *error = flag + " must not be empty";
        return false;
      }
      (flag == "--spec" ? args->spec : args->work_dir) = value;
    } else {
      *commit = value;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) {
      *error = std::string("missing ") + required;
      return false;
    }
  }
  return true;
}

pad::JsonValue Provenance(const RunArgs& args, const std::string& commit) {
  pad::JsonValue provenance = pad::JsonValue::Object();
  provenance.Set("commit", pad::JsonValue(commit));
#if defined(__clang__)
  provenance.Set("compiler", pad::JsonValue(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  provenance.Set("compiler", pad::JsonValue(std::string("gcc ") + __VERSION__));
#else
  provenance.Set("compiler", pad::JsonValue("unknown"));
#endif
  provenance.Set("build_type", pad::JsonValue(PERFBENCH_BUILD_TYPE));
  provenance.Set("nproc", pad::JsonValue(static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
  utsname host{};
  if (uname(&host) == 0) {
    provenance.Set("kernel", pad::JsonValue(std::string(host.sysname) + " " + host.release +
                                            " " + host.version));
  }
  provenance.Set("workload", pad::JsonValue(args.workload));
  provenance.Set("seed", pad::JsonValue(std::to_string(args.seed)));
  provenance.Set("seconds", pad::JsonValue(args.seconds));
  provenance.Set("trace", pad::JsonValue(args.trace));
  provenance.Set("scale", pad::JsonValue(args.scale));
  return provenance;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string commit = "unknown";
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &commit, &error)) {
    std::fprintf(stderr, "adpad_perfbench: %s\n", error.c_str());
    return 2;
  }
  std::vector<perfbench::MetricSpec> specs;
  if (!perfbench::LoadMetricList(args.spec, args.trace ? "per_layer" : "end_to_end", &specs,
                                 &error) ||
      !perfbench::MakeDirs(args.work_dir, &error)) {
    std::fprintf(stderr, "adpad_perfbench: %s\n", error.c_str());
    return 2;
  }

  const perfbench::Outcome outcome = args.workload == "serve-open"
                                         ? perfbench::RunServeWorkload(args)
                                         : perfbench::RunSimWorkload(args);
  for (const auto& [name, value] : outcome.values) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const perfbench::MetricSpec& spec) { return name == spec.name; })) {
      std::fprintf(stderr, "adpad_perfbench: internal: metric '%s' is not in the %s list of %s\n",
                   name.c_str(), args.trace ? "per_layer" : "end_to_end", args.spec.c_str());
      return 1;
    }
  }
  if (!outcome.problems.empty()) {
    for (const std::string& problem : outcome.problems) {
      std::fprintf(stderr, "adpad_perfbench: correctness check failed: %s\n", problem.c_str());
    }
    return 1;
  }

  pad::JsonValue header = pad::JsonValue::Object();
  header.Set("provenance", perfbench::Provenance(args, commit));
  header.Set("params", outcome.params);
  std::cout << header.Dump() << "\n";

  pad::JsonValue metrics = pad::JsonValue::Object();
  for (const perfbench::MetricSpec& spec : specs) {
    const auto found = outcome.values.find(spec.name);
    pad::JsonValue entry = pad::JsonValue::Object();
    entry.Set("value", pad::JsonValue(found == outcome.values.end() ? 0.0 : found->second));
    entry.Set("unit", pad::JsonValue(spec.unit));
    metrics.Set(spec.name, std::move(entry));
  }
  pad::JsonValue result = pad::JsonValue::Object();
  result.Set("correct", pad::JsonValue(true));
  result.Set("attempted", pad::JsonValue(outcome.attempted));
  result.Set("failed", pad::JsonValue(outcome.failed));
  result.Set("metrics", std::move(metrics));
  std::cout << result.Dump() << std::endl;
  return 0;
}
