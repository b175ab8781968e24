// What E21 (serving_latency) and E23 (serving_chaos) share: one closed-loop
// load served by a fresh AdServer on loopback, checked and digested the same
// way, so both experiments' digest rows mean the same thing.
#ifndef ADPAD_BENCH_BENCH_SERVING_H_
#define ADPAD_BENCH_BENCH_SERVING_H_

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/bytes.h"
#include "src/serve/ad_server.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/load_gen.h"
#include "src/serve/session_adapter.h"

namespace pad {
namespace bench {

// The keys both experiments read; each passes in its own defaults.
struct ServingOptions {
  int users = 0;
  int connections = 0;
  int requests = 0;
  int seed = 424242;

  std::string Label() const {
    return "users=" + std::to_string(users) + " connections=" + std::to_string(connections) +
           " requests=" + std::to_string(requests);
  }
};

// One load-generator thread runs per connection, so connections share the
// thread cap of `threads=`.
inline ServingOptions ReadServingOptions(const Options& options, ServingOptions serving) {
  constexpr int kMax = std::numeric_limits<int>::max();
  serving.users = Users(options, serving.users);
  serving.connections = options.GetInt("connections", serving.connections, 1, 1024);
  serving.requests = options.GetInt("requests", serving.requests, 1, kMax);
  serving.seed = options.GetInt("seed", serving.seed, 0, kMax);
  return serving;
}

struct ServedLoad {
  LoadGenReport report;
  // Order-independent digest of every decision byte served: per connection,
  // FNV-1a over that connection's response payloads in order (order within a
  // connection is part of the protocol), then a wrapping sum over
  // connections, so the total does not depend on which finished first.
  uint64_t digest = 0;
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0, max_us = 0.0;
};

// Replays every reconnect segment of every connection against DecideBatch:
// the server must have decided exactly the answered requests of that
// segment, in order, byte for byte. Returns false (and complains) on the
// first corrupted payload.
inline bool VerifySegments(const std::string& context, const DecisionEngine& engine,
                           const LoadGenOptions& load, const LoadGenReport& report) {
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
          std::cerr << context << ": corrupted decision (connection " << c << " segment "
                    << segment << " request " << frames[first + k].request_index << ")\n";
          return false;
        }
      }
    }
  }
  return true;
}

// Serves `load` from an AdServer on `engine` with `server_options` (the port
// and response capture are set here), drains the server, and fills *out.
// Fails — printing one line that starts with `context` — when the server
// cannot start, when any request went unanswered, or when any answered
// segment does not replay exactly.
inline int ServeLoad(const std::string& context, const DecisionEngine& engine,
                     const AdServerOptions& server_options, LoadGenOptions load,
                     ServedLoad* out) {
  AdServer server(engine, server_options);
  if (const Status started = server.Start(); !started.ok()) {
    std::cerr << context << ": " << started.ToString() << "\n";
    return 1;
  }
  std::thread server_thread([&server] { server.Run(); });
  load.port = server.port();
  load.capture_responses = true;
  LatencyHistogram latency;
  const Status run = RunLoadGen(load, latency, &out->report);
  server.RequestDrain();
  server_thread.join();
  if (!run.ok()) {
    std::cerr << context << ": " << run.ToString() << "\n";
    return 1;
  }

  const LoadGenReport& report = out->report;
  const int64_t want = static_cast<int64_t>(load.connections) * load.requests_per_connection;
  if (report.responses != want || report.abandoned != 0 || report.errors != 0) {
    std::cerr << context << ": lossy run (responses=" << report.responses << "/" << want
              << " abandoned=" << report.abandoned << " errors=" << report.errors
              << " shed=" << report.shed << ")\n";
    return 1;
  }
  if (!VerifySegments(context, engine, load, report)) {
    return 1;
  }

  out->digest = 0;
  for (const auto& connection : report.captured_frames) {
    uint64_t connection_digest = kFnvOffset;
    for (const auto& frame : connection) {
      connection_digest = FnvFoldBytes(connection_digest, frame.payload);
    }
    out->digest += connection_digest;  // Wrapping sum: connection-order free.
  }
  out->p50_us = static_cast<double>(latency.ValueAtQuantile(0.50)) / 1000.0;
  out->p99_us = static_cast<double>(latency.ValueAtQuantile(0.99)) / 1000.0;
  out->p999_us = static_cast<double>(latency.ValueAtQuantile(0.999)) / 1000.0;
  out->max_us = static_cast<double>(latency.max()) / 1000.0;
  return 0;
}

}  // namespace bench
}  // namespace pad

#endif  // ADPAD_BENCH_BENCH_SERVING_H_
