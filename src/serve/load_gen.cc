#include "src/serve/load_gen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/common/rng.h"
#include "src/common/sockio.h"

namespace pad {
namespace {

// Salt for the backoff-jitter stream: forked per connection with the same
// discipline as the request plan but off a different root, so jitter draws
// can never advance (and silently change) the request plan the equivalence
// and digest tests replay.
constexpr uint64_t kJitterSalt = 0x6a177e55a17ull;

uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct ConnectionTally {
  int64_t sent = 0;
  int64_t responses = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t reconnects = 0;
  int64_t abandoned = 0;
  int64_t chaos_connect_failures = 0;
  int64_t chaos_partial_writes = 0;
  int64_t chaos_dribbled_reads = 0;
  int64_t chaos_stalls = 0;
  int64_t chaos_cuts = 0;
};

// One connection's closed loop with retry/backoff/reconnect and client-side
// chaos. Blocking sockets; one Worker per thread.
class Worker {
 public:
  Worker(const LoadGenOptions& options, const sockaddr_in& address, int index,
         LatencyHistogram& latency, LoadGenReport* report, ConnectionTally& tally)
      : options_(options),
        address_(address),
        index_(index),
        chaos_(options.chaos, options.chaos_seed),
        latency_(latency),
        report_(report),
        tally_(tally) {}

  void Run() {
    // Same forking discipline as BuildRequestPlan, different root.
    Rng jitter_root(options_.seed ^ kJitterSalt);
    jitter_ = jitter_root.Fork();
    for (int c = 0; c < index_; ++c) {
      jitter_ = jitter_root.Fork();
    }
    const std::vector<WireRequest> plan = BuildRequestPlan(options_, index_);
    std::string frame;
    std::string payload;
    bool dead = false;
    for (size_t r = 0; r < plan.size() && !dead; ++r) {
      frame.clear();
      AppendRequestFrame(plan[r], &frame);
      bool answered = false;
      for (int attempt = 0; !answered && !dead; ++attempt) {
        if (attempt > options_.retry_max) {
          // Out of retries: give up on this connection's remaining plan.
          // A connection that never produced a response was (or behaved
          // like) an admission shed; one that did is a hard error.
          tally_.abandoned += static_cast<int64_t>(plan.size() - r);
          if (last_failure_was_connect_) {
            ++tally_.errors;
          } else if (tally_.responses == 0) {
            ++tally_.shed;
          } else {
            ++tally_.errors;
          }
          dead = true;
          break;
        }
        if (attempt > 0) {
          ++tally_.retries;
          Backoff(attempt - 1);
        }
        if (fd_ < 0 && !TryConnect()) {
          last_failure_was_connect_ = true;
          continue;
        }
        last_failure_was_connect_ = false;
        // One attempt = one draw per chaos channel at a fresh index, so a
        // cut request's retry is not doomed to the identical cut.
        const int64_t seq = attempt_seq_++;
        const uint64_t t0 = NowNanos();
        if (!SendRequest(frame, seq)) {
          CloseFd();
          continue;
        }
        ++tally_.sent;
        if (chaos_.enabled() && chaos_.StallRead(index_, seq)) {
          ++tally_.chaos_stalls;
          std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
              options_.chaos.stall_ms));
        }
        const bool dribble = chaos_.enabled() && chaos_.DribbleRead(index_, seq);
        if (dribble) {
          ++tally_.chaos_dribbled_reads;
        }
        const int got = ReadResponse(&payload, dribble);
        if (got == 0) {
          ++tally_.timeouts;
          CloseFd();
          continue;
        }
        if (got < 0) {
          CloseFd();
          continue;
        }
        latency_.Record(NowNanos() - t0);
        const StatusOr<WireResponse> response = DecodeResponsePayload(
            std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(payload.data()),
                                     payload.size()));
        if (!response.ok()) {
          // A malformed frame from the server is a server bug, not weather —
          // retrying would only re-count it.
          ++tally_.errors;
          dead = true;
          break;
        }
        if (response->status == ResponseStatus::kOverloaded) {
          ++tally_.shed;  // Admission control or eviction; the server hung up.
          dead = true;
          break;
        }
        ++tally_.responses;
        answered = true;
        if (options_.capture_responses) {
          report_->captured_frames[static_cast<size_t>(index_)].push_back(
              {static_cast<int32_t>(r), segment_, payload});
        }
      }
    }
    CloseFd();
  }

 private:
  void CloseFd() {
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
  }

  bool TryConnect() {
    const int64_t attempt = connect_attempts_++;
    if (chaos_.enabled() && chaos_.ConnectFails(index_, attempt)) {
      ++tally_.chaos_connect_failures;
      return false;
    }
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      return false;
    }
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&address_), sizeof(address_)) != 0) {
      CloseFd();
      return false;
    }
    const int enable = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    reader_ = FrameReader();  // A new connection is a new framing stream.
    ++segment_;
    if (segment_ > 0) {
      ++tally_.reconnects;
    }
    return true;
  }

  void Backoff(int retry) {
    if (options_.backoff_ms <= 0) {
      return;
    }
    int64_t delay = options_.backoff_ms;
    for (int i = 0; i < retry && delay < options_.backoff_cap_ms; ++i) {
      delay *= 2;
    }
    delay = std::min(delay, options_.backoff_cap_ms);
    // Deterministic jitter in [0.5, 1.0): desynchronizes a retrying fleet
    // without giving up reproducibility.
    const double jittered = static_cast<double>(delay) * (0.5 + 0.5 * jitter_.NextDouble());
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(jittered));
  }

  bool SendRequest(const std::string& frame, int64_t seq) {
    if (chaos_.enabled() && chaos_.CutFrame(index_, seq)) {
      // Die mid-frame: ship a strict prefix, then vanish. The server sees a
      // torn request tail (its dirty_disconnects counter).
      ++tally_.chaos_cuts;
      const size_t split = chaos_.SplitPoint(index_, seq, frame.size());
      [[maybe_unused]] const Status ignored = SendAll(fd_, frame.data(), split);
      return false;
    }
    if (chaos_.enabled() && chaos_.PartialWrite(index_, seq)) {
      // Two sends instead of one: the frame crosses the wire whole, just
      // not in one syscall.
      ++tally_.chaos_partial_writes;
      const size_t split = chaos_.SplitPoint(index_, seq, frame.size());
      return SendAll(fd_, frame.data(), split).ok() &&
             SendAll(fd_, frame.data() + split, frame.size() - split).ok();
    }
    return SendAll(fd_, frame.data(), frame.size()).ok();
  }

  // Reads one frame payload. 1 = got it, 0 = req_timeout_ms expired,
  // -1 = EOF/error before a complete frame.
  int ReadResponse(std::string* payload, bool dribble) {
    bool have = false;
    const uint64_t deadline_ns =
        options_.req_timeout_ms > 0
            ? NowNanos() + static_cast<uint64_t>(options_.req_timeout_ms) * 1000000ull
            : 0;
    while (true) {
      if (!reader_.Next(payload, &have).ok()) {
        return -1;
      }
      if (have) {
        return 1;
      }
      if (deadline_ns != 0) {
        const uint64_t now = NowNanos();
        if (now >= deadline_ns) {
          return 0;
        }
        pollfd waiter{fd_, POLLIN, 0};
        const int ready =
            poll(&waiter, 1, static_cast<int>((deadline_ns - now) / 1000000ull) + 1);
        if (ready == 0) {
          return 0;
        }
        if (ready < 0) {
          if (errno == EINTR) {
            continue;
          }
          return -1;
        }
      }
      char buffer[4096];
      const ssize_t n = ReadSome(fd_, buffer, dribble ? 1 : sizeof(buffer));
      if (n <= 0) {
        return -1;  // EOF or a hard error (ReadSome already retried EINTR).
      }
      if (!reader_
               .Append(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(buffer),
                                                static_cast<size_t>(n)))
               .ok()) {
        return -1;
      }
    }
  }

  const LoadGenOptions& options_;
  const sockaddr_in& address_;
  const int index_;
  const ChaosPlan chaos_;
  LatencyHistogram& latency_;
  LoadGenReport* report_;
  ConnectionTally& tally_;

  Rng jitter_{0};
  int fd_ = -1;
  FrameReader reader_;
  int64_t connect_attempts_ = 0;
  int64_t attempt_seq_ = 0;
  int32_t segment_ = -1;
  bool last_failure_was_connect_ = false;
};

}  // namespace

std::vector<WireRequest> BuildRequestPlan(const LoadGenOptions& options, int connection) {
  // Fork one child stream per connection off the shared seed, exactly the
  // per-user forking discipline of the trace generator: connection c's plan
  // depends on (seed, c) alone, never on the other connections.
  Rng root(options.seed);
  Rng rng = root.Fork();
  for (int c = 0; c < connection; ++c) {
    rng = root.Fork();
  }
  int64_t client = options.first_client + connection;
  if (options.client_count > 0) {
    client %= options.client_count;
  }
  std::vector<WireRequest> plan;
  plan.reserve(static_cast<size_t>(options.requests_per_connection));
  for (int r = 0; r < options.requests_per_connection; ++r) {
    WireRequest request;
    request.client_id = static_cast<uint64_t>(client);
    request.slot_count = static_cast<uint32_t>(
        rng.UniformInt(1, static_cast<int64_t>(std::max<uint32_t>(options.max_slots, 1))));
    request.deadline_s = options.deadline_s;
    plan.push_back(request);
  }
  return plan;
}

Status RunLoadGen(const LoadGenOptions& options, LatencyHistogram& latency,
                  LoadGenReport* report) {
  if (options.connections <= 0 || options.requests_per_connection <= 0) {
    return Status::InvalidArgument("load generator needs positive connections and requests");
  }
  if (options.req_timeout_ms < 0) {
    return Status::InvalidArgument("req_timeout_ms must be >= 0");
  }
  if (options.retry_max < 0) {
    return Status::InvalidArgument("retry_max must be >= 0");
  }
  if (options.backoff_ms < 0 || options.backoff_cap_ms < options.backoff_ms) {
    return Status::InvalidArgument("need 0 <= backoff_ms <= backoff_cap_ms");
  }
  PAD_RETURN_IF_ERROR(ValidateChaosConfig(options.chaos));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &address.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable host '" + options.host + "'");
  }

  *report = LoadGenReport{};
  if (options.capture_responses) {
    report->captured_frames.assign(static_cast<size_t>(options.connections), {});
  }
  std::vector<ConnectionTally> tallies(static_cast<size_t>(options.connections));

  const uint64_t start = NowNanos();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options.connections));
  for (int c = 0; c < options.connections; ++c) {
    workers.emplace_back([&, c] {
      Worker worker(options, address, c, latency, report, tallies[static_cast<size_t>(c)]);
      worker.Run();
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  report->wall_s = static_cast<double>(NowNanos() - start) * 1e-9;
  for (const ConnectionTally& tally : tallies) {
    report->requests_sent += tally.sent;
    report->responses += tally.responses;
    report->shed += tally.shed;
    report->errors += tally.errors;
    report->retries += tally.retries;
    report->timeouts += tally.timeouts;
    report->reconnects += tally.reconnects;
    report->abandoned += tally.abandoned;
    report->chaos_connect_failures += tally.chaos_connect_failures;
    report->chaos_partial_writes += tally.chaos_partial_writes;
    report->chaos_dribbled_reads += tally.chaos_dribbled_reads;
    report->chaos_stalls += tally.chaos_stalls;
    report->chaos_cuts += tally.chaos_cuts;
  }
  report->qps = report->wall_s > 0.0
                    ? static_cast<double>(report->responses) / report->wall_s
                    : 0.0;
  return Status::Ok();
}

}  // namespace pad
