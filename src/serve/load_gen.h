// Closed-loop load generator for the ad-serving front end.
//
// Replays PopulationStream clients as N concurrent connections (the jtest /
// http_load analog for this protocol): connection i carries client
// first_client + i, sends its deterministic request sequence one at a time,
// and waits for each response before sending the next — a closed loop, so
// offered load adapts to server latency and the recorded distribution is
// response time, not queue time.
//
// Determinism: the request sequence of every connection is a pure function
// of (options.seed, connection index) via forked Rng streams, exposed
// through BuildRequestPlan so the serving-equivalence test can compute the
// batch reference answers for exactly the requests the wire carried. The
// robustness knobs never touch that stream: backoff jitter draws from a
// separately-salted fork, so enabling retries cannot move a request plan.
//
// Robustness: each request may be given a deadline (req_timeout_ms) and a
// retry budget (retry_max) with capped exponential backoff and
// deterministic jitter. A connection that dies mid-plan is re-established
// and the failed request re-sent on the fresh connection
// (reconnect-and-resume; the server gives the new connection a fresh
// session). Retries, timeouts, and reconnects are all tallied in the
// report, so a chaos bench can assert exactly how much work the fault plan
// induced.
//
// Chaos: when `chaos` rates are set, the client's own connect/send/recv run
// through a deterministic ChaosPlan (chaos.h) keyed by (chaos_seed,
// connection index, attempt index): refused connects, request frames cut
// mid-send (the server sees a torn tail), split sends, dribbled and stalled
// response reads.
#ifndef ADPAD_SRC_SERVE_LOAD_GEN_H_
#define ADPAD_SRC_SERVE_LOAD_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/serve/chaos.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/wire.h"

namespace pad {

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int connections = 8;
  int requests_per_connection = 100;
  // Client ids: connection i speaks for client first_client + i, wrapped
  // into [0, client_count) when client_count > 0.
  int64_t first_client = 0;
  int64_t client_count = 0;
  uint64_t seed = 1;
  // Request shape: slot_count uniform in [1, max_slots], fixed deadline.
  uint32_t max_slots = 4;
  double deadline_s = 3.0 * 3600.0;
  // Capture every response payload per connection (the evidence of the
  // equivalence tests and the serving benches; costs memory, off by default).
  bool capture_responses = false;

  // Robustness knobs.
  int64_t req_timeout_ms = 0;  // Per-request-attempt deadline; 0 = wait forever.
  int retry_max = 0;           // Extra attempts per request beyond the first.
  int64_t backoff_ms = 10;     // Base delay before retry k is ~base * 2^k ...
  int64_t backoff_cap_ms = 1000;  // ... capped here, then jittered to 50–100%.

  // Client-side chaos injection (disabled by default).
  ChaosConfig chaos;
  uint64_t chaos_seed = 0;
};

struct LoadGenReport {
  int64_t requests_sent = 0;  // Request frames fully handed to the kernel.
  int64_t responses = 0;      // Decisions received (status kOk).
  int64_t shed = 0;           // kOverloaded answers / refused connections.
  int64_t errors = 0;         // Socket or protocol failures (final, post-retry).
  // Robustness accounting.
  int64_t retries = 0;     // Attempts beyond each request's first.
  int64_t timeouts = 0;    // Attempts abandoned at req_timeout_ms.
  int64_t reconnects = 0;  // Connections re-established mid-plan.
  int64_t abandoned = 0;   // Plan requests given up after retry_max.
  // Client-side chaos events actually fired.
  int64_t chaos_connect_failures = 0;
  int64_t chaos_partial_writes = 0;
  int64_t chaos_dribbled_reads = 0;
  int64_t chaos_stalls = 0;
  int64_t chaos_cuts = 0;
  double wall_s = 0.0;  // First connect to last response.
  double qps = 0.0;     // responses / wall_s.
  // captured_frames[c][k] = the k-th response payload connection c received
  // (when captured), with its provenance: which plan request it answers and
  // which reconnect segment (server session) answered it — the serving
  // benches replay each segment against DecideBatch to prove the server never
  // corrupted an answered response.
  struct CapturedFrame {
    int32_t request_index = 0;
    int32_t segment = 0;
    std::string payload;
  };
  std::vector<std::vector<CapturedFrame>> captured_frames;
};

// The deterministic request sequence of one connection.
std::vector<WireRequest> BuildRequestPlan(const LoadGenOptions& options, int connection);

// Runs the closed loop: one thread per connection, blocking sockets.
// Latencies (nanoseconds per request round trip) are recorded into
// `latency`; aggregate counts land in `report`. Fails only on setup errors
// (bad host); per-connection failures are counted, not fatal.
Status RunLoadGen(const LoadGenOptions& options, LatencyHistogram& latency,
                  LoadGenReport* report);

}  // namespace pad

#endif  // ADPAD_SRC_SERVE_LOAD_GEN_H_
