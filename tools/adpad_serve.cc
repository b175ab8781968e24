// adpad_serve — the real-time ad-serving front end.
//
// Builds a DecisionEngine market snapshot over a PopulationStream population
// and serves auction/prefetch-bundle decisions on the wire protocol until
// SIGTERM/SIGINT, which triggers a graceful drain: stop accepting, answer
// everything in flight, flush, exit 0.
//
//   $ adpad_serve port=7421 users=400
//   $ adpad_load host=127.0.0.1 port=7421 connections=8 requests=1000
//
// Options (key=value; --config <file> loads one per line):
//   host=ADDR              bind address        (default 127.0.0.1)
//   port=N                 bind port; 0 picks an ephemeral port and prints it
//   users=N                PopulationStream clients in the market snapshot
//   seed=N                 trace and campaign-book seed (default 1234)
//   max_sessions=N         admission-control bound on concurrent connections
//   accept_backlog=N       kernel listen(2) backlog
//   max_bundle_ads=N       largest bundle a request may ask for
//   arrivals_per_day=X     campaign arrival rate (default scales with users)
//   num_segments=N         audience segments (campaign targeting)
//   capacity_confidence=C  per-client sale-capacity confidence bar
//
// Hardening (0 disables a deadline; see src/serve/ad_server.h):
//   idle_timeout_ms=N      close a connection silent for N ms
//   write_stall_ms=N       evict a client that refuses to drain for N ms
//   max_inflight=N         buffered responses per connection before
//                          read backpressure
//   max_out_kib=N          output buffer watermark per connection, KiB
//   sndbuf=N               per-connection SO_SNDBUF bytes (0 = kernel default)
//
// Server-side chaos injection (deterministic; for the chaos battery/bench):
//   chaos_seed=N                 schedule seed
//   chaos_partial_write_rate=X   split a response frame across sends
//   chaos_dribble_read_rate=X    deliver a request one byte per round
//   chaos_stall_rate=X           park reads for chaos_stall_ms
//   chaos_stall_ms=X             stall length (default 20)
//   chaos_cut_rate=X             close mid-frame (FIN, or RST with
//   chaos_cut_with_rst=0|1       an abortive linger)
//
// Exit codes: 0 ok (including signal-triggered drain), 1 invalid
// argument/config, 2 environment failure (bind/listen).
#include <chrono>
#include <csignal>
#include <iostream>

#include "src/common/options.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/serve/ad_server.h"
#include "src/serve/session_adapter.h"

namespace pad {
namespace {

AdServer* g_server = nullptr;

void HandleStopSignal(int) {
  if (g_server != nullptr) {
    g_server->RequestDrain();  // Atomic store + eventfd write: signal-safe.
  }
}

int Main(int argc, char** argv) {
  std::string parse_error;
  const std::optional<Options> options = Options::Parse(argc, argv, &parse_error);
  if (!options) {
    std::cerr << parse_error << "\n";
    return 1;
  }

  ServeConfig config = DefaultServeConfig(options->GetInt("users", 200));
  config.pad.seed = static_cast<uint64_t>(options->GetInt("seed", 1234));
  config.pad.population.seed = config.pad.seed;
  // The book gets a stream of its own: Rng(seed) would replay the
  // population's parameter draws.
  uint64_t book_state = config.pad.seed;
  config.pad.campaigns.seed = SplitMix64(book_state);
  config.max_bundle_ads = static_cast<uint32_t>(options->GetInt("max_bundle_ads", 32));
  config.pad.campaigns.arrivals_per_day =
      options->GetDouble("arrivals_per_day", config.pad.campaigns.arrivals_per_day);
  // Campaigns take the population's segment count (AlignInputsConfig).
  config.pad.population.num_segments =
      options->GetInt("num_segments", config.pad.population.num_segments);
  config.pad.capacity_confidence =
      options->GetDouble("capacity_confidence", config.pad.capacity_confidence);

  AdServerOptions server_options;
  server_options.host = options->GetString("host", "127.0.0.1");
  server_options.port = static_cast<uint16_t>(options->GetInt("port", 0));
  server_options.max_sessions = options->GetInt("max_sessions", 256);
  server_options.accept_backlog = options->GetInt("accept_backlog", 64);
  server_options.idle_timeout_ms = options->GetInt("idle_timeout_ms", 0);
  server_options.write_stall_ms = options->GetInt("write_stall_ms", 0);
  server_options.max_inflight = options->GetInt("max_inflight", server_options.max_inflight);
  server_options.max_out_bytes =
      static_cast<size_t>(options->GetInt("max_out_kib", 256)) * 1024;
  server_options.so_sndbuf = options->GetInt("sndbuf", 0);
  server_options.chaos_seed = static_cast<uint64_t>(options->GetInt("chaos_seed", 0));
  server_options.chaos.partial_write_rate = options->GetDouble("chaos_partial_write_rate", 0.0);
  server_options.chaos.dribble_read_rate = options->GetDouble("chaos_dribble_read_rate", 0.0);
  server_options.chaos.stall_rate = options->GetDouble("chaos_stall_rate", 0.0);
  server_options.chaos.stall_ms =
      options->GetDouble("chaos_stall_ms", server_options.chaos.stall_ms);
  server_options.chaos.cut_rate = options->GetDouble("chaos_cut_rate", 0.0);
  server_options.chaos.cut_with_rst = options->GetInt("chaos_cut_with_rst", 0) != 0;
  if (!options->error().empty()) {
    std::cerr << options->error() << "\n";
    return 1;
  }
  for (const std::string& key : options->UnusedKeys()) {
    std::cerr << "unknown option '" << key << "'\n";
    return 1;
  }

  const auto snapshot_start = std::chrono::steady_clock::now();
  StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
  if (!engine.ok()) {
    std::cerr << engine.status().ToString() << "\n";
    return ExitCodeFor(engine.status());
  }
  const double snapshot_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - snapshot_start).count();

  AdServer server(**engine, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return ExitCodeFor(started);
  }

  g_server = &server;
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  std::cout << "adpad_serve listening on " << server_options.host << ":" << server.port()
            << " — " << (*engine)->num_clients() << " clients, "
            << (*engine)->active_campaigns() << " active campaigns, max_sessions="
            << server_options.max_sessions << ", snapshot_s=" << FormatDouble(snapshot_s, 3)
            << "\n"
            << std::flush;
  server.Run();
  g_server = nullptr;

  const AdServerStats& stats = server.stats();
  std::cout << "drained: accepted=" << stats.accepted << " served=" << stats.served
            << " shed=" << stats.shed << " protocol_errors=" << stats.protocol_errors
            << " idle_timeouts=" << stats.idle_timeouts
            << " stall_evictions=" << stats.stall_evictions
            << " backpressure_pauses=" << stats.backpressure_pauses
            << " half_closed=" << stats.half_closed
            << " dirty_disconnects=" << stats.dirty_disconnects << "\n";
  return 0;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) { return pad::Main(argc, argv); }
