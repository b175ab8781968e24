// E23 — Serving under deterministic network chaos: latency, goodput, and
// zero corruption across fault rates.
//
// Boots the hardened front end (src/serve) on loopback and drives it with
// the closed-loop load generator three times, at chaos rates {0, 0.05, 0.2}.
// Each level injects the same fault mix from the same seeds:
//   * server side (outcome-preserving): split response writes, dribbled
//     request reads, parked-read stalls — the decision bytes must not move;
//   * client side (outcome-changing): refused connects and request frames
//     cut mid-send, which force the retry/backoff/reconnect machinery to
//     re-earn every response.
//
// The chaos schedule is a pure function of (seed, connection, event index)
// (src/serve/chaos.h), so the rows that describe *what happened* — response
// counts, retries, reconnects, cuts, refused connects, and the decision
// digest — are bit-deterministic and gated by tools/bench_compare at zero
// tolerance. Latency quantiles, QPS, and goodput are wall-clock facts and
// are reported for humans, not gated.
//
// The bench itself enforces the contracts that make those rows meaningful:
//   * every request is eventually answered at every chaos level (the retry
//     budget absorbs the plan's faults; abandoned == 0);
//   * per reconnect segment, the answered responses replay exactly against
//     DecideBatch (no server-side corruption under torn tails and retries;
//     bench::ServeLoad in bench_serving.h, which E21 runs too).
//     This replay, not cross-level digest equality, is the integrity proof:
//     a reconnect legitimately starts a fresh sale session
//     (session_adapter.h), so where chaos cuts the stream changes which
//     session state each request sees — the per-level digest pins *that
//     level's* exact decision bytes, and bench_compare holds each one at
//     zero tolerance against the checked-in baseline;
//   * degradation is monotone: a higher fault rate induces at least as many
//     cuts, refused connects, and retries (decision-set nesting, chaos.h).
//
//   $ adpad_bench serving_chaos json=BENCH_serving_chaos.json
//   $ adpad_bench serving_chaos users=1024 connections=8 requests=400
#include <vector>

#include "bench/bench_serving.h"

namespace pad {
namespace {

// Fixed schedule seeds: the same seeds at every rate, so the decision sets
// nest across levels and degradation is monotone by construction.
constexpr uint64_t kServerChaosSeed = 4242;
constexpr uint64_t kClientChaosSeed = 7777;

struct LevelResult {
  std::string name;
  double rate = 0.0;
  LoadGenReport report;
  uint64_t digest = 0;
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double goodput_rps = 0.0;
};

int RunLevel(const DecisionEngine& engine, const bench::ServingOptions& bench,
             const std::string& name, double rate, LevelResult* out) {
  AdServerOptions server_options;
  server_options.max_sessions = bench.connections + 8;
  // Deadlines generous enough that CI scheduling noise can never trip them —
  // the sweep machinery still runs every round.
  server_options.idle_timeout_ms = 30'000;
  server_options.write_stall_ms = 30'000;
  // Server chaos: outcome-preserving faults only. A server-side cut would
  // destroy a decision in flight; that failure mode is the chaos battery's
  // business (tests/serve/chaos_test.cc), not a throughput bench's.
  server_options.chaos_seed = kServerChaosSeed;
  server_options.chaos.partial_write_rate = rate;
  server_options.chaos.dribble_read_rate = rate;
  server_options.chaos.stall_rate = rate;
  server_options.chaos.stall_ms = 1.0;

  LoadGenOptions load;
  load.connections = bench.connections;
  load.requests_per_connection = bench.requests;
  load.client_count = engine.num_clients();
  load.seed = static_cast<uint64_t>(bench.seed);
  // Retry budget sized so the fault plan can never exhaust it (nine
  // independently-decided cuts in a row at rate 0.2 ≈ 5e-7): every request
  // is re-earned, none abandoned.
  load.retry_max = 8;
  load.backoff_ms = 1;
  load.backoff_cap_ms = 16;
  // Client chaos: the outcome-changing faults live here, where the retry
  // machinery owns recovery.
  load.chaos_seed = kClientChaosSeed;
  load.chaos.cut_rate = rate;
  load.chaos.connect_failure_rate = rate / 2.0;
  load.chaos.partial_write_rate = rate;
  load.chaos.dribble_read_rate = rate;
  load.chaos.stall_rate = rate;
  load.chaos.stall_ms = 1.0;

  bench::ServedLoad served;
  if (const int status = bench::ServeLoad("serving_chaos (chaos=" + name + ")", engine,
                                          server_options, load, &served);
      status != 0) {
    return status;
  }
  out->name = name;
  out->rate = rate;
  out->report = std::move(served.report);
  out->digest = served.digest;
  out->p50_us = served.p50_us;
  out->p99_us = served.p99_us;
  out->p999_us = served.p999_us;
  const LoadGenReport& report = out->report;
  out->goodput_rps =
      report.wall_s > 0.0 ? static_cast<double>(report.responses) / report.wall_s : 0.0;
  return 0;
}

int Run(const bench::ServingOptions& bench, bench::BenchJson& json) {
  const std::string label_base = bench.Label();
  PrintBanner(std::cout, "E23: serving under chaos (" + label_base + ")");

  const ServeConfig config = DefaultServeConfig(bench.users);
  StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
  if (!engine.ok()) {
    std::cerr << "serving_chaos: " << engine.status().ToString() << "\n";
    return 1;
  }

  const std::vector<std::pair<std::string, double>> levels = {
      {"none", 0.0}, {"low", 0.05}, {"high", 0.2}};
  std::vector<LevelResult> results(levels.size());
  for (size_t i = 0; i < levels.size(); ++i) {
    const int status =
        RunLevel(**engine, bench, levels[i].first, levels[i].second, &results[i]);
    if (status != 0) {
      return status;
    }
  }

  // Cross-level contracts.
  const LevelResult& none = results[0];
  if (none.report.retries != 0 || none.report.reconnects != 0 ||
      none.report.chaos_cuts != 0 || none.report.chaos_connect_failures != 0) {
    std::cerr << "serving_chaos: chaos events fired at rate 0\n";
    return 1;
  }
  for (size_t i = 1; i < results.size(); ++i) {
    const LoadGenReport& lower = results[i - 1].report;
    const LoadGenReport& higher = results[i].report;
    if (higher.chaos_cuts <= lower.chaos_cuts ||
        higher.chaos_connect_failures < lower.chaos_connect_failures ||
        higher.retries < lower.retries || higher.reconnects < lower.reconnects) {
      std::cerr << "serving_chaos: degradation not monotone (" << results[i].name
                << " vs " << results[i - 1].name << ")\n";
      return 1;
    }
  }

  TextTable table({"chaos", "responses", "retries", "reconn", "cuts", "refused", "p50 us",
                   "p99 us", "goodput"});
  for (const LevelResult& level : results) {
    table.AddRow({level.name, std::to_string(level.report.responses),
                  std::to_string(level.report.retries),
                  std::to_string(level.report.reconnects),
                  std::to_string(level.report.chaos_cuts),
                  std::to_string(level.report.chaos_connect_failures),
                  FormatDouble(level.p50_us, 1), FormatDouble(level.p99_us, 1),
                  FormatDouble(level.goodput_rps, 0) + " rps"});
  }
  table.Print(std::cout);
  for (const LevelResult& level : results) {
    std::cout << "decision digest (" << level.name
              << "): " << FormatDouble(bench::DigestHi(level.digest), 0) << " / "
              << FormatDouble(bench::DigestLo(level.digest), 0) << "\n";
  }

  for (const LevelResult& level : results) {
    const std::string label = label_base + " chaos=" + level.name;
    const LoadGenReport& report = level.report;
    // Deterministic rows: gated at zero tolerance by CI.
    json.Add("responses", static_cast<double>(report.responses), "count", label);
    json.Add("retries", static_cast<double>(report.retries), "count", label);
    json.Add("reconnects", static_cast<double>(report.reconnects), "count", label);
    json.Add("chaos_cuts", static_cast<double>(report.chaos_cuts), "count", label);
    json.Add("chaos_connect_failures",
             static_cast<double>(report.chaos_connect_failures), "count", label);
    json.Add("abandoned", static_cast<double>(report.abandoned), "count", label);
    json.Add("errors", static_cast<double>(report.errors), "count", label);
    json.Add("shed", static_cast<double>(report.shed), "count", label);
    json.Add("decision_digest_hi", bench::DigestHi(level.digest), "u32", label);
    json.Add("decision_digest_lo", bench::DigestLo(level.digest), "u32", label);
    // Wall-clock rows: reported, never gated.
    json.Add("p50_us", level.p50_us, "us", label);
    json.Add("p99_us", level.p99_us, "us", label);
    json.Add("p999_us", level.p999_us, "us", label);
    json.Add("qps", report.qps, "qps", label);
    json.Add("goodput_rps", level.goodput_rps, "rps", label);
    json.Add("wall_s", report.wall_s, "s", label);
  }
  return 0;
}

}  // namespace

bench::Experiment bench::ServingChaos(const Options& options) {
  const ServingOptions serving =
      ReadServingOptions(options, {.users = 256, .connections = 6, .requests = 150});
  return [serving](BenchJson& json) { return Run(serving, json); };
}

}  // namespace pad
