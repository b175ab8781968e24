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
//     DecideBatch (no server-side corruption under torn tails and retries).
//     This replay, not cross-level digest equality, is the integrity proof:
//     a reconnect legitimately starts a fresh sale session
//     (session_adapter.h), so where chaos cuts the stream changes which
//     session state each request sees — the per-level digest pins *that
//     level's* exact decision bytes, and bench_compare holds each one at
//     zero tolerance against the checked-in baseline;
//   * degradation is monotone: a higher fault rate induces at least as many
//     cuts, refused connects, and retries (decision-set nesting, chaos.h).
//
//   $ bench_serving_chaos --json BENCH_serving_chaos.json
//   $ bench_serving_chaos 1024 --connections 8 --requests 400
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/serve/ad_server.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/load_gen.h"
#include "src/serve/session_adapter.h"

namespace pad {
namespace {

struct ChaosBenchOptions {
  int users = 256;
  int connections = 6;
  int requests = 150;
  uint64_t seed = 424242;
};

ChaosBenchOptions OptionsFromArgv(int argc, char** argv) {
  ChaosBenchOptions options;
  options.users = bench::UsersFromArgv(argc, argv, options.users);
  for (int i = 1; i < argc; ++i) {
    auto int_flag = [&](const char* name, int* out) {
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = std::atoi(argv[i + 1]);
      }
    };
    int_flag("--connections", &options.connections);
    int_flag("--requests", &options.requests);
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    }
  }
  return options;
}

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

// Replays every reconnect segment of every connection against DecideBatch:
// the server must have decided exactly the answered requests of that
// segment, in order, byte for byte. Returns false (and complains) on the
// first corrupted payload.
bool VerifySegments(const DecisionEngine& engine, const LoadGenOptions& load,
                    const LoadGenReport& report) {
  for (size_t c = 0; c < report.captured_frames.size(); ++c) {
    const std::vector<WireRequest> plan = BuildRequestPlan(load, static_cast<int>(c));
    const auto& frames = report.captured_frames[c];
    size_t i = 0;
    while (i < frames.size()) {
      const int32_t segment = frames[i].segment;
      std::vector<WireRequest> asked;
      size_t first = i;
      while (i < frames.size() && frames[i].segment == segment) {
        asked.push_back(plan[static_cast<size_t>(frames[i].request_index)]);
        ++i;
      }
      const std::vector<WireResponse> expected = engine.DecideBatch(asked);
      for (size_t k = 0; k < expected.size(); ++k) {
        if (EncodeResponsePayload(expected[k]) != frames[first + k].payload) {
          std::cerr << "bench_serving_chaos: corrupted decision (connection " << c
                    << " segment " << segment << " request "
                    << frames[first + k].request_index << ")\n";
          return false;
        }
      }
    }
  }
  return true;
}

int RunLevel(const DecisionEngine& engine, const ChaosBenchOptions& bench,
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

  AdServer server(engine, server_options);
  if (const Status started = server.Start(); !started.ok()) {
    std::cerr << "bench_serving_chaos: " << started.ToString() << "\n";
    return 1;
  }
  std::thread server_thread([&server] { server.Run(); });

  LoadGenOptions load;
  load.port = server.port();
  load.connections = bench.connections;
  load.requests_per_connection = bench.requests;
  load.client_count = engine.num_clients();
  load.seed = bench.seed;
  load.capture_responses = true;
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

  LatencyHistogram latency;
  const Status run = RunLoadGen(load, latency, &out->report);
  server.RequestDrain();
  server_thread.join();
  if (!run.ok()) {
    std::cerr << "bench_serving_chaos: " << run.ToString() << "\n";
    return 1;
  }

  const LoadGenReport& report = out->report;
  const int64_t want =
      static_cast<int64_t>(bench.connections) * bench.requests;
  if (report.responses != want || report.abandoned != 0 || report.errors != 0) {
    std::cerr << "bench_serving_chaos: lossy run at chaos=" << rate
              << " (responses=" << report.responses << "/" << want
              << " abandoned=" << report.abandoned << " errors=" << report.errors
              << ")\n";
    return 1;
  }
  if (!VerifySegments(engine, load, report)) {
    return 1;
  }

  // Order-independent decision digest over the captured payloads. Fresh
  // sessions on reconnect make the exact bytes a function of where the fault
  // plan cut each stream, so every level pins its own digest.
  uint64_t digest = 0;
  for (const auto& connection : report.captured_frames) {
    uint64_t connection_digest = kFnvOffset;
    for (const auto& frame : connection) {
      connection_digest = FnvFoldBytes(connection_digest, frame.payload);
    }
    digest += connection_digest;
  }
  out->name = name;
  out->rate = rate;
  out->digest = digest;
  out->p50_us = static_cast<double>(latency.ValueAtQuantile(0.50)) / 1000.0;
  out->p99_us = static_cast<double>(latency.ValueAtQuantile(0.99)) / 1000.0;
  out->p999_us = static_cast<double>(latency.ValueAtQuantile(0.999)) / 1000.0;
  out->goodput_rps =
      report.wall_s > 0.0 ? static_cast<double>(report.responses) / report.wall_s : 0.0;
  return 0;
}

int Run(const ChaosBenchOptions& bench, bench::BenchJson& json) {
  const std::string label_base = "users=" + std::to_string(bench.users) +
                                 " connections=" + std::to_string(bench.connections) +
                                 " requests=" + std::to_string(bench.requests);
  PrintBanner(std::cout, "E23: serving under chaos (" + label_base + ")");

  const ServeConfig config = DefaultServeConfig(bench.users);
  StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
  if (!engine.ok()) {
    std::cerr << "bench_serving_chaos: " << engine.status().ToString() << "\n";
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
    std::cerr << "bench_serving_chaos: chaos events fired at rate 0\n";
    return 1;
  }
  for (size_t i = 1; i < results.size(); ++i) {
    const LoadGenReport& lower = results[i - 1].report;
    const LoadGenReport& higher = results[i].report;
    if (higher.chaos_cuts <= lower.chaos_cuts ||
        higher.chaos_connect_failures < lower.chaos_connect_failures ||
        higher.retries < lower.retries || higher.reconnects < lower.reconnects) {
      std::cerr << "bench_serving_chaos: degradation not monotone (" << results[i].name
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
}  // namespace pad

int main(int argc, char** argv) {
  const pad::ChaosBenchOptions options = pad::OptionsFromArgv(argc, argv);
  pad::bench::BenchJson json(argc, argv, "serving_chaos");
  const int status = pad::Run(options, json);
  if (status != 0) {
    return status;
  }
  return json.Flush() ? 0 : 1;
}
