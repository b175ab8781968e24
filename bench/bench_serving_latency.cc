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
// The run goes through bench::ServeLoad (bench_serving.h), E23's path too,
// so every answered request is also replayed against DecideBatch.
//
//   $ adpad_bench serving_latency json=BENCH_serving_latency.json
//   $ adpad_bench serving_latency users=1024 connections=16 requests=1000
#include "bench/bench_serving.h"

namespace pad {
namespace {

int Run(const bench::ServingOptions& serving, bench::BenchJson& json) {
  const std::string label = serving.Label();
  PrintBanner(std::cout, "E21: serving latency, closed loop (" + label + ")");

  const ServeConfig config = DefaultServeConfig(serving.users);
  StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
  if (!engine.ok()) {
    std::cerr << "serving_latency: " << engine.status().ToString() << "\n";
    return 1;
  }

  AdServerOptions server_options;
  server_options.max_sessions = serving.connections + 8;
  LoadGenOptions load;
  load.connections = serving.connections;
  load.requests_per_connection = serving.requests;
  load.client_count = (*engine)->num_clients();
  load.seed = static_cast<uint64_t>(serving.seed);
  bench::ServedLoad served;
  if (const int status =
          bench::ServeLoad("serving_latency", **engine, server_options, load, &served);
      status != 0) {
    return status;
  }
  const LoadGenReport& report = served.report;

  // The bundle mix, from the same captured payloads.
  int64_t bundles = 0;
  int64_t decided = 0;
  for (const auto& connection : report.captured_frames) {
    for (const auto& frame : connection) {
      ++decided;
      const StatusOr<WireResponse> response = DecodeResponsePayload(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(frame.payload.data()), frame.payload.size()));
      if (response.ok() && response->decision == DecisionKind::kBundle) {
        ++bundles;
      }
    }
  }
  const double bundle_fraction =
      decided > 0 ? static_cast<double>(bundles) / static_cast<double>(decided) : 0.0;

  TextTable table({"metric", "value"});
  table.AddRow({"requests", std::to_string(report.requests_sent)});
  table.AddRow({"responses", std::to_string(report.responses)});
  table.AddRow({"shed", std::to_string(report.shed)});
  table.AddRow({"errors", std::to_string(report.errors)});
  table.AddRow({"p50", FormatDouble(served.p50_us, 1) + " us"});
  table.AddRow({"p99", FormatDouble(served.p99_us, 1) + " us"});
  table.AddRow({"p999", FormatDouble(served.p999_us, 1) + " us"});
  table.AddRow({"max", FormatDouble(served.max_us, 1) + " us"});
  table.AddRow({"wall time", FormatDouble(report.wall_s, 2) + " s"});
  table.AddRow({"throughput", FormatDouble(report.qps, 0) + " qps"});
  table.AddRow({"bundle fraction", bench::Pct(bundle_fraction)});
  table.AddRow({"decision digest", FormatDouble(bench::DigestHi(served.digest), 0) + " / " +
                                       FormatDouble(bench::DigestLo(served.digest), 0)});
  table.Print(std::cout);

  json.Add("p50_us", served.p50_us, "us", label);
  json.Add("p99_us", served.p99_us, "us", label);
  json.Add("p999_us", served.p999_us, "us", label);
  json.Add("qps", report.qps, "qps", label);
  json.Add("responses", static_cast<double>(report.responses), "count", label);
  json.Add("shed", static_cast<double>(report.shed), "count", label);
  json.Add("errors", static_cast<double>(report.errors), "count", label);
  json.Add("bundle_fraction", bundle_fraction, "fraction", label);
  json.Add("decision_digest_hi", bench::DigestHi(served.digest), "u32", label);
  json.Add("decision_digest_lo", bench::DigestLo(served.digest), "u32", label);
  return 0;
}

}  // namespace

bench::Experiment bench::ServingLatency(const Options& options) {
  const ServingOptions serving =
      ReadServingOptions(options, {.users = 256, .connections = 8, .requests = 200});
  return [serving](BenchJson& json) { return Run(serving, json); };
}

}  // namespace pad
