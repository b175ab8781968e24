// E21 — Serving latency under closed-loop load, digest-locked.
//
// Boots the real-time front end (src/serve) on an ephemeral loopback port,
// drives it with the closed-loop load generator, and reports the latency
// distribution (p50/p99/p999 in microseconds), throughput, and an
// order-independent digest of every decision byte served. The latency and
// QPS rows are wall-clock facts and are ignored by the CI gate; the digest
// and count rows are deterministic — the serving path re-deciding a single
// impression differently, dropping a response, or shedding a connection it
// should have admitted fails `tools/bench_compare` at zero tolerance.
//
//   $ bench_serving_latency --json BENCH_serving_latency.json
//   $ bench_serving_latency 1024 --connections 16 --requests 1000
//
// Digest construction: per connection, FNV-1a over that connection's
// concatenated response payloads (order within a connection is part of the
// protocol); the per-connection digests are then summed with wrapping
// arithmetic so the total is independent of which connection finished first.
#include <thread>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/serve/ad_server.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/load_gen.h"
#include "src/serve/session_adapter.h"

namespace pad {
namespace {

struct ServingBenchOptions {
  int users = 256;
  int connections = 8;
  int requests = 200;
  uint64_t seed = 424242;
};

ServingBenchOptions OptionsFromArgv(int argc, char** argv) {
  ServingBenchOptions options;
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

int Run(const ServingBenchOptions& serving, bench::BenchJson& json) {
  const std::string label = "users=" + std::to_string(serving.users) +
                            " connections=" + std::to_string(serving.connections) +
                            " requests=" + std::to_string(serving.requests);
  PrintBanner(std::cout, "E21: serving latency, closed loop (" + label + ")");

  const ServeConfig config = DefaultServeConfig(serving.users);
  StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
  if (!engine.ok()) {
    std::cerr << "bench_serving_latency: " << engine.status().ToString() << "\n";
    return 1;
  }

  AdServerOptions server_options;
  server_options.max_sessions = serving.connections + 8;
  AdServer server(**engine, server_options);
  if (const Status started = server.Start(); !started.ok()) {
    std::cerr << "bench_serving_latency: " << started.ToString() << "\n";
    return 1;
  }
  std::thread server_thread([&server] { server.Run(); });

  LoadGenOptions load;
  load.port = server.port();
  load.connections = serving.connections;
  load.requests_per_connection = serving.requests;
  load.client_count = (*engine)->num_clients();
  load.seed = serving.seed;
  load.capture_responses = true;

  LatencyHistogram latency;
  LoadGenReport report;
  const Status run = RunLoadGen(load, latency, &report);
  server.RequestDrain();
  server_thread.join();
  if (!run.ok()) {
    std::cerr << "bench_serving_latency: " << run.ToString() << "\n";
    return 1;
  }

  // Order-independent decision digest plus the bundle mix, from the same
  // captured payloads a correctness test would compare.
  uint64_t digest = 0;
  int64_t bundles = 0;
  int64_t decided = 0;
  for (const std::vector<std::string>& connection : report.captured) {
    uint64_t connection_digest = kFnvOffset;
    for (const std::string& payload : connection) {
      connection_digest = FnvFoldBytes(connection_digest, payload);
      ++decided;
      const StatusOr<WireResponse> response = DecodeResponsePayload(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
      if (response.ok() && response->decision == DecisionKind::kBundle) {
        ++bundles;
      }
    }
    digest += connection_digest;  // Wrapping sum: connection-order free.
  }
  const double bundle_fraction =
      decided > 0 ? static_cast<double>(bundles) / static_cast<double>(decided) : 0.0;

  const double p50_us = static_cast<double>(latency.ValueAtQuantile(0.50)) / 1000.0;
  const double p99_us = static_cast<double>(latency.ValueAtQuantile(0.99)) / 1000.0;
  const double p999_us = static_cast<double>(latency.ValueAtQuantile(0.999)) / 1000.0;

  TextTable table({"metric", "value"});
  table.AddRow({"requests", std::to_string(report.requests_sent)});
  table.AddRow({"responses", std::to_string(report.responses)});
  table.AddRow({"shed", std::to_string(report.shed)});
  table.AddRow({"errors", std::to_string(report.errors)});
  table.AddRow({"p50", FormatDouble(p50_us, 1) + " us"});
  table.AddRow({"p99", FormatDouble(p99_us, 1) + " us"});
  table.AddRow({"p999", FormatDouble(p999_us, 1) + " us"});
  table.AddRow({"max", FormatDouble(static_cast<double>(latency.max()) / 1000.0, 1) + " us"});
  table.AddRow({"wall time", FormatDouble(report.wall_s, 2) + " s"});
  table.AddRow({"throughput", FormatDouble(report.qps, 0) + " qps"});
  table.AddRow({"bundle fraction", bench::Pct(bundle_fraction)});
  table.AddRow({"decision digest", FormatDouble(bench::DigestHi(digest), 0) + " / " +
                                       FormatDouble(bench::DigestLo(digest), 0)});
  table.Print(std::cout);

  if (report.errors != 0 || report.shed != 0 ||
      report.responses != static_cast<int64_t>(serving.connections) * serving.requests) {
    std::cerr << "bench_serving_latency: lossy run (errors=" << report.errors
              << " shed=" << report.shed << " responses=" << report.responses << ")\n";
    return 1;
  }

  json.Add("p50_us", p50_us, "us", label);
  json.Add("p99_us", p99_us, "us", label);
  json.Add("p999_us", p999_us, "us", label);
  json.Add("qps", report.qps, "qps", label);
  json.Add("responses", static_cast<double>(report.responses), "count", label);
  json.Add("shed", static_cast<double>(report.shed), "count", label);
  json.Add("errors", static_cast<double>(report.errors), "count", label);
  json.Add("bundle_fraction", bundle_fraction, "fraction", label);
  json.Add("decision_digest_hi", bench::DigestHi(digest), "u32", label);
  json.Add("decision_digest_lo", bench::DigestLo(digest), "u32", label);
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  const pad::ServingBenchOptions options = pad::OptionsFromArgv(argc, argv);
  pad::bench::BenchJson json(argc, argv, "serving_latency");
  const int status = pad::Run(options, json);
  if (status != 0) {
    return status;
  }
  return json.Flush() ? 0 : 1;
}
