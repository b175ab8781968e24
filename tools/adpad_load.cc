// adpad_load — closed-loop load generator for adpad_serve.
//
// Replays PopulationStream clients as concurrent connections against a
// running server and reports the latency distribution and throughput:
//
//   $ adpad_load port=7421 connections=8 requests=1000
//   connections=8 requests_per_connection=1000
//   requests=8000 responses=8000 shed=0 errors=0
//   p50=41.2us p99=118.7us p999=301.5us min=22.1us max=812.4us
//   wall=0.52s qps=15384.6
//
// Options (key=value):
//   host=ADDR, port=N        where the server listens (port is required)
//   connections=N            concurrent closed-loop connections
//   requests=N               requests per connection
//   first_client=N           connection i speaks for client first_client+i
//   client_count=N           wrap client ids into [0, N) (0 = no wrap)
//   seed=N                   request-plan seed (deterministic per connection)
//   max_slots=N              slot_count drawn uniformly from [1, N]
//   deadline_s=X             per-request display deadline
//
// Robustness (see src/serve/load_gen.h):
//   req_timeout_ms=N         per-attempt response deadline (0 = wait forever)
//   retry_max=N              extra attempts per request beyond the first
//   backoff_ms=N             retry k backs off ~backoff_ms * 2^k ms ...
//   backoff_cap_ms=N         ... capped here, jittered deterministically
//
// Client-side chaos injection (deterministic; for the chaos battery/bench):
//   chaos_seed=N                  schedule seed
//   chaos_connect_failure_rate=X  refuse a connect attempt
//   chaos_partial_write_rate=X    split a request frame across sends
//   chaos_dribble_read_rate=X     read a response one byte at a time
//   chaos_stall_rate=X            stall chaos_stall_ms before reading
//   chaos_stall_ms=X              stall length (default 20)
//   chaos_cut_rate=X              abandon a request frame mid-send
//
// Exit codes: 0 all requests answered, 1 invalid arguments, 2 connect
// failure or any sheds/errors (the run did not measure what it claims).
#include <iostream>
#include <limits>

#include "src/common/options.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/load_gen.h"

namespace pad {
namespace {

std::string Us(uint64_t nanos) {
  return FormatDouble(static_cast<double>(nanos) / 1000.0, 1) + "us";
}

int Main(int argc, char** argv) {
  std::string parse_error;
  const std::optional<Options> options = Options::Parse(argc, argv, &parse_error);
  if (!options) {
    std::cerr << parse_error << "\n";
    return 1;
  }

  LoadGenOptions load;
  load.host = options->GetString("host", "127.0.0.1");
  // Keys narrowed to an unsigned type are range-checked first, so a value
  // the type cannot hold is refused instead of wrapping.
  load.port = static_cast<uint16_t>(options->GetInt("port", 0, 0, 65535));
  load.connections = options->GetInt("connections", 8);
  load.requests_per_connection = options->GetInt("requests", 100);
  load.first_client = options->GetInt("first_client", 0);
  load.client_count = options->GetInt("client_count", 0);
  load.seed = static_cast<uint64_t>(options->GetInt("seed", 1));
  load.max_slots = static_cast<uint32_t>(
      options->GetInt("max_slots", 4, 0, std::numeric_limits<int>::max()));
  load.deadline_s = options->GetDouble("deadline_s", load.deadline_s);
  load.req_timeout_ms = options->GetInt("req_timeout_ms", 0);
  load.retry_max = options->GetInt("retry_max", 0);
  load.backoff_ms = options->GetInt("backoff_ms", static_cast<int>(load.backoff_ms));
  load.backoff_cap_ms =
      options->GetInt("backoff_cap_ms", static_cast<int>(load.backoff_cap_ms));
  load.chaos_seed = static_cast<uint64_t>(options->GetInt("chaos_seed", 0));
  load.chaos.connect_failure_rate = options->GetDouble("chaos_connect_failure_rate", 0.0);
  load.chaos.partial_write_rate = options->GetDouble("chaos_partial_write_rate", 0.0);
  load.chaos.dribble_read_rate = options->GetDouble("chaos_dribble_read_rate", 0.0);
  load.chaos.stall_rate = options->GetDouble("chaos_stall_rate", 0.0);
  load.chaos.stall_ms = options->GetDouble("chaos_stall_ms", load.chaos.stall_ms);
  load.chaos.cut_rate = options->GetDouble("chaos_cut_rate", 0.0);
  if (!options->error().empty()) {
    std::cerr << options->error() << "\n";
    return 1;
  }
  for (const std::string& key : options->UnusedKeys()) {
    std::cerr << "unknown option '" << key << "'\n";
    return 1;
  }
  if (load.port == 0) {
    std::cerr << "invalid_argument: port= is required\n";
    return 1;
  }

  LatencyHistogram latency;
  LoadGenReport report;
  const Status run = RunLoadGen(load, latency, &report);
  if (!run.ok()) {
    std::cerr << run.ToString() << "\n";
    return ExitCodeFor(run);
  }

  std::cout << "connections=" << load.connections
            << " requests_per_connection=" << load.requests_per_connection << "\n"
            << "requests=" << report.requests_sent << " responses=" << report.responses
            << " shed=" << report.shed << " errors=" << report.errors << "\n"
            << "retries=" << report.retries << " timeouts=" << report.timeouts
            << " reconnects=" << report.reconnects << " abandoned=" << report.abandoned
            << "\n"
            << "p50=" << Us(latency.ValueAtQuantile(0.50))
            << " p99=" << Us(latency.ValueAtQuantile(0.99))
            << " p999=" << Us(latency.ValueAtQuantile(0.999)) << " min=" << Us(latency.min())
            << " max=" << Us(latency.max()) << "\n"
            << "wall=" << FormatDouble(report.wall_s, 2)
            << "s qps=" << FormatDouble(report.qps, 1) << "\n";
  return (report.errors == 0 && report.shed == 0) ? 0 : 2;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) { return pad::Main(argc, argv); }
