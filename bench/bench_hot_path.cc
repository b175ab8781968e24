// E20 — Per-user hot-path throughput, digest-locked.
//
// Runs one paired baseline/PAD comparison through the streaming shard engine
// at a fixed CI-sized population and reports wall-clock throughput
// (users/s) plus the combined metric and event-log digests, split into
// exactly-representable uint32 halves so `tools/bench_compare` can gate them
// at zero tolerance. That makes the perf gate double as a correctness gate:
// an "optimization" that drifts a single metric bit or reorders one event
// fails the digest rows before anyone has to squint at throughput noise.
//
//   $ adpad_bench hot_path json=BENCH_hot_path.json
//   $ adpad_bench hot_path users=20000 market_users=2000 threads=2
//
// The default scale (2000 users, 9 days, 500-user markets) matches the CI
// perf-smoke row of population_scale, small enough to finish in seconds on
// one core.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/core/shard_engine.h"

namespace pad {
namespace {

struct HotPathOptions {
  int users = 2000;
  int market_users = 500;
  int threads = 1;
  double days = 9.0;  // 7 warmup + 2 scored.
  int repeats = 1;    // Throughput reported from the fastest repeat.
};

int Run(const HotPathOptions& hot, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(hot.users);
  config.population.horizon_s = hot.days * kDay;
  config.market_users = hot.market_users;

  ShardEngineOptions options;
  options.threads = hot.threads;
  options.event_digests = true;
  if (const std::string error = ValidateShardOptions(config, options); !error.empty()) {
    std::cerr << "hot_path: " << error << "\n";
    return 1;
  }

  const std::string label = "users=" + std::to_string(hot.users) +
                            " days=" + FormatDouble(hot.days, 0) +
                            " market_users=" + std::to_string(hot.market_users);
  PrintBanner(std::cout, "E20: per-user hot path, digest-locked (" + label + ")");

  double best_wall_s = 0.0;
  ShardedComparison result;
  for (int r = 0; r < hot.repeats; ++r) {
    const auto start = std::chrono::steady_clock::now();
    ShardedComparison run = RunShardedComparison(config, options);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (r > 0 && (run.combined_pad_digest != result.combined_pad_digest ||
                  run.combined_event_digest != result.combined_event_digest)) {
      std::cerr << "hot_path: repeat " << r << " diverged from repeat 0\n";
      return 1;
    }
    if (r == 0 || wall_s < best_wall_s) {
      best_wall_s = wall_s;
    }
    result = std::move(run);
  }
  const double users_per_s = static_cast<double>(result.total_users) / best_wall_s;

  TextTable table({"metric", "value"});
  table.AddRow({"users", std::to_string(result.total_users)});
  table.AddRow({"sessions", std::to_string(result.total_sessions)});
  table.AddRow({"wall time", FormatDouble(best_wall_s, 2) + " s"});
  table.AddRow({"throughput", FormatDouble(users_per_s, 1) + " users/s"});
  const auto halves = [](uint64_t digest) {
    return FormatDouble(bench::DigestHi(digest), 0) + " / " +
           FormatDouble(bench::DigestLo(digest), 0);
  };
  table.AddRow({"pad digest", halves(result.combined_pad_digest)});
  table.AddRow({"event digest", halves(result.combined_event_digest)});
  table.Print(std::cout);

  json.Add("users_per_sec", users_per_s, "users/s", label);
  json.Add("sessions", static_cast<double>(result.total_sessions), "count", label);
  json.Add("pad_digest_hi", bench::DigestHi(result.combined_pad_digest), "u32", label);
  json.Add("pad_digest_lo", bench::DigestLo(result.combined_pad_digest), "u32", label);
  json.Add("baseline_digest_hi", bench::DigestHi(result.combined_baseline_digest), "u32", label);
  json.Add("baseline_digest_lo", bench::DigestLo(result.combined_baseline_digest), "u32", label);
  json.Add("event_digest_hi", bench::DigestHi(result.combined_event_digest), "u32", label);
  json.Add("event_digest_lo", bench::DigestLo(result.combined_event_digest), "u32", label);
  return 0;
}

}  // namespace

bench::Experiment bench::HotPath(const Options& options) {
  HotPathOptions hot;
  hot.users = Users(options, hot.users);
  hot.market_users = MarketUsers(options, hot.market_users);
  hot.threads = Threads(options);
  hot.days = Days(options);
  hot.repeats = options.GetInt("repeats", hot.repeats, 1, 1000);
  return [hot](BenchJson& json) { return Run(hot, json); };
}

}  // namespace pad
