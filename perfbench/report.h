// Shared plumbing of the benchmark binary: clocks, resource usage, host
// diagnostics, the in-memory span recorder, and the result a workload hands
// back to main() for printing.
#ifndef ADPAD_PERFBENCH_REPORT_H_
#define ADPAD_PERFBENCH_REPORT_H_

#include <time.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.h"

namespace perfbench {

// What the command line asked for (main.cc validates every field).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // "full" is the benchmark; "tiny" shrinks every population for the
  // benchmark's own tests.
  std::string scale = "full";
  // Scratch directory inside the checkout: journals and the span file.
  std::string work_dir = ".bench_build/run";
  // The benchmark definition, whose metric lists the output follows.
  std::string spec = "BENCHMARK.json";
  // Test hook: flip one bit of the pinned digests so the gate must trip.
  bool perturb_pin = false;
};

// The seed whose digests are pinned in the sim workloads.
inline constexpr uint64_t kDefaultSeed = 1;

struct MetricSpec {
  std::string name;
  std::string unit;
};

// Reads the metric list `key` ("end_to_end" or "per_layer") of the
// BENCHMARK.json at `path`, in file order. Every workload prints every
// metric of the list its mode selects; a per-layer metric of a layer the
// workload never runs prints 0. False with *error on a missing or malformed
// file.
bool LoadMetricList(const std::string& path, const std::string& key,
                    std::vector<MetricSpec>* specs, std::string* error);

// A workload's verdict. Any entry in `problems` is a failed correctness
// check: main() then exits non-zero without printing a result.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;  // Metric name -> value.
  std::vector<std::string> problems;
  pad::JsonValue params = pad::JsonValue::Object();  // Workload parameters.

  void Set(const std::string& name, double value) { values[name] = value; }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      problems.push_back(what);
    }
  }
};

Outcome RunSimWorkload(const RunArgs& args);
Outcome RunServeWorkload(const RunArgs& args);

// --- Clocks and resource usage -----------------------------------------

int64_t NowNs();  // CLOCK_MONOTONIC.
double NowS();
double ClockS(clockid_t clock);  // Any clock, e.g. another thread's CPU clock.
double ThreadCpuS();
// user+sys of this process plus every reaped child.
double ProcessCpuS();
// max(this process's peak RSS, the largest reaped child's peak RSS).
double PeakRssMib();

// Host diagnostics sampled around the timed part of a run.
struct EnvSample {
  uint64_t steal_ticks = 0;
  uint64_t total_ticks = 0;
  int64_t nivcsw = 0;
};
EnvSample SampleEnv();
// Records env.steal_frac and env.nivcsw for the interval [from, to] in the
// run's parameters and, when `as_metrics` (the traced run), as metrics.
void AddEnvMetrics(const EnvSample& from, const EnvSample& to, bool as_metrics,
                   Outcome* outcome);

double Median(std::vector<double> values);
// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// The benchmark's seed mixer: every input seed is derived through it.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over `size` bytes, continuing from `hash`.
inline constexpr uint64_t kFnvOffset = 14695981039346656037ull;
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash);

// --- Spans -----------------------------------------------------------------

// Spans recorded from the benchmark's side of each public call, kept in
// memory and written once at exit. A span's self time is its duration minus
// the time its children cover; the recorder is single-threaded, so children
// never overlap and that is the sum of their durations.
class SpanRecorder {
 public:
  // Opens a span named `name` (a string literal) under `parent` (-1 = root).
  int Begin(const char* name, int64_t trace_id, int parent = -1);
  void End(int span);

  // Total seconds over every span named `name`.
  double TotalS(const char* name) const;

  // {"names": [...], "spans": [[trace_id, name, parent, start_ns, end_ns], ...]}
  bool WriteJson(const std::string& path, std::string* error) const;

 private:
  struct Span {
    int64_t trace_id;
    int64_t start_ns;
    int64_t end_ns;
    int32_t name;
    int32_t parent;
  };
  int32_t NameId(const char* name);
  int32_t FindName(const char* name) const;

  std::vector<const char*> names_;
  std::vector<Span> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t trace_id, int parent = -1)
      : recorder_(recorder), id_(recorder->Begin(name, trace_id, parent)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

// Creates `dir` and its parents (mkdir -p). False with *error on failure.
bool MakeDirs(const std::string& dir, std::string* error);

}  // namespace perfbench

#endif  // ADPAD_PERFBENCH_REPORT_H_
