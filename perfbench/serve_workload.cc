// The serving workload, serve-open.
//
// The epoll AdServer runs on its own thread over DefaultServeConfig(8192);
// a single-threaded open-loop generator drives it over loopback. Each
// connection is one client visit: a fresh session of 24-48 requests for one
// client, slot_count uniform in [1, 4], a 3 h deadline. Requests are due on a
// fixed schedule whatever the server does, spread round-robin over
// nproc / 2 lanes; each lane opens its next visit's connection while the
// current one runs, so at most nproc connections are open and no send waits
// for a handshake. The generator spins instead of sleeping, because sleeping
// in epoll_wait adds timer slack to every latency it measures.
//
// A run is: set-up (engine build + listen, repeated, median), a phase at the
// low rate where the server idles between frames, a phase at the high rate
// where frames batch per read, then a capacity search. Every answered
// response is checked byte for byte against a DecideBatch replay of its
// visit. The traced run adds traced low/high phases, replays of each visit's
// requests through the per-request public calls, and a replay of the
// snapshot build's trace/apps/prediction/auction work.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/report.h"
#include "src/apps/app_profile.h"
#include "src/apps/workload.h"
#include "src/auction/campaign.h"
#include "src/common/sockio.h"
#include "src/core/pad_simulation.h"
#include "src/prediction/slot_series.h"
#include "src/serve/ad_server.h"
#include "src/serve/session_adapter.h"
#include "src/serve/wire.h"
#include "src/trace/generator.h"

namespace perfbench {
namespace {

// The two fixed rates (requests/s), chosen on a 4-vCPU host where capacity
// measured 300-460k/s. At the low rate the server sleeps between frames and
// reads one at a time (~15 us of server CPU per request); at the high rate
// frames batch per read (~10 us). Above ~110k/s the median jumps from ~20 to
// 40-85 us and follows host steal, and below 10k/s idle wake-ups moved it 2x
// between runs, so neither would repeat; see README.md.
constexpr double kLowQps = 10000.0;
constexpr double kHighQps = 80000.0;
constexpr double kDeadlineS = 3.0 * 3600.0;
constexpr int kVisitMin = 24;
constexpr int kVisitMax = 48;
// The capacity criterion's latency bar.
constexpr double kCapacityP50LimitNs = 1e6;
// How long a phase waits for its last responses before counting them lost.
constexpr int64_t kDrainGraceNs = 2000000000;
// Blocks each fixed-rate phase is split into (see FixedRate).
constexpr int kBlocks = 5;
// One request in this many gets generator spans in the traced run.
constexpr int64_t kSpanSample = 16;
// Requests the traced run replays through the per-request calls.
constexpr int64_t kReplayRequests = 200000;

struct ServeShape {
  int clients = 8192;
  int setup_repeats = 3;
};

ServeShape ShapeFor(const RunArgs& args) {
  return args.scale == "tiny" ? ServeShape{256, 2} : ServeShape{};
}

pad::ServeConfig MakeServeConfig(const ServeShape& shape, uint64_t seed) {
  pad::ServeConfig config = pad::DefaultServeConfig(shape.clients);
  config.pad.population.seed = seed;
  config.pad.campaigns.seed = SplitMix64(seed ^ 0xca3a1e5ull);
  config.pad.seed = SplitMix64(seed ^ 0x5eedull);
  return config;
}

// A visit's requests are a pure function of (run seed, visit index), so the
// correctness replay regenerates them instead of storing them.
struct VisitPlan {
  uint64_t client = 0;
  int length = 0;
  uint64_t stream = 0;
};

VisitPlan PlanVisit(uint64_t seed, int64_t visit, int clients) {
  const uint64_t stream = SplitMix64(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(visit));
  VisitPlan plan;
  plan.client = SplitMix64(stream ^ 0xc1) % static_cast<uint64_t>(clients);
  plan.length =
      kVisitMin + static_cast<int>(SplitMix64(stream ^ 0x1e) % (kVisitMax - kVisitMin + 1));
  plan.stream = stream;
  return plan;
}

pad::WireRequest VisitRequest(const VisitPlan& plan, int index) {
  pad::WireRequest request;
  request.client_id = plan.client;
  request.slot_count =
      1 + static_cast<uint32_t>(SplitMix64(plan.stream + static_cast<uint64_t>(index) + 1) % 4);
  request.deadline_s = kDeadlineS;
  return request;
}

// What came back on one visit's connection.
struct VisitRecord {
  VisitPlan plan;
  uint64_t digest = kFnvOffset;  // FNV-1a over the response payloads, in order.
  int received = 0;
  int ok = 0;
  int bundles = 0;
  bool closed = false;
};

// Responses and their check against the batch reference, over every visit.
struct VisitTotals {
  int64_t visits = 0;
  int64_t planned_requests = 0;
  int64_t received = 0;
  int64_t ok = 0;
  int64_t bundles = 0;
  int64_t mismatched_visits = 0;
  // The first visits checked, kept for the traced run's per-call replays.
  std::vector<VisitRecord> sample;
  int64_t sample_requests = 0;
};

// Replays a visit's answered prefix through DecideBatch and compares the
// encoded bytes with what came off the socket.
bool MatchesBatchReplay(const pad::DecisionEngine& engine, const VisitRecord& visit) {
  std::vector<pad::WireRequest> requests;
  for (int i = 0; i < visit.received; ++i) {
    requests.push_back(VisitRequest(visit.plan, i));
  }
  uint64_t digest = kFnvOffset;
  for (const pad::WireResponse& response : engine.DecideBatch(requests)) {
    const std::string payload = pad::EncodeResponsePayload(response);
    digest = Fnv1a(payload.data(), payload.size(), digest);
  }
  return digest == visit.digest;
}

struct Pending {
  int64_t request_id;
  int64_t due_ns;
};

struct Connection {
  int fd = -1;
  int64_t visit = -1;
  int sent = 0;
  std::deque<Pending> outstanding;
  pad::FrameReader reader;
  std::string out;
  size_t out_offset = 0;
};

struct Lane {
  std::unique_ptr<Connection> current;
  std::unique_ptr<Connection> next;
  std::unique_ptr<Connection> draining;
};

// One timed stretch at a fixed offered rate.
struct PhaseStats {
  // Due time -> decoded response, kept for the fixed-rate phases only; a
  // capacity rung just counts answers under the latency bar, so memory does
  // not grow with the rate the search reaches.
  bool keep_latencies = false;
  std::vector<int64_t> latency_ns;
  int64_t answered = 0;
  int64_t under_limit = 0;
  int64_t sent = 0;
  // Capacity evidence, robust to a single host stall: responses received in
  // the middle 80 % of the schedule, and the time-averaged backlog of the
  // schedule's second and fourth quarters.
  int64_t window_lo_ns = 0;
  int64_t window_hi_ns = 0;
  int64_t answered_in_window = 0;
  double backlog_q2 = 0.0;
  double backlog_q4 = 0.0;
  double late_ns_sum = 0.0;
  int64_t late_ns_max = 0;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  double busy_s = 0.0;  // Generator time in loop rounds that sent or received.
  bool aborted = false;

  double P(double q) const {
    std::vector<double> values(latency_ns.begin(), latency_ns.end());
    return Quantile(std::move(values), q);
  }
};

// A fixed-rate phase run as several blocks interleaved with the other
// rate's, so a seconds-long slow patch of the host spoils one block rather
// than the phase: the reported median is the median of the blocks' medians.
struct FixedRate {
  std::vector<PhaseStats> blocks;

  double P50Us() const {
    std::vector<double> medians;
    for (const PhaseStats& block : blocks) {
      medians.push_back(block.P(0.5) / 1000.0);
    }
    return Median(medians);
  }
  double P99Us() const {
    std::vector<double> all;
    for (const PhaseStats& block : blocks) {
      all.insert(all.end(), block.latency_ns.begin(), block.latency_ns.end());
    }
    return Quantile(std::move(all), 0.99) / 1000.0;
  }
  double ServerCpuUsPerRequest() const {
    double cpu_s = 0.0;
    int64_t sent = 0;
    for (const PhaseStats& block : blocks) {
      cpu_s += block.server_cpu_s;
      sent += block.sent;
    }
    return sent > 0 ? cpu_s * 1e6 / static_cast<double>(sent) : 0.0;
  }
};

class OpenLoopGenerator {
 public:
  OpenLoopGenerator(const pad::DecisionEngine& engine, uint16_t port, uint64_t seed, int clients,
                    int lanes, clockid_t server_clock, int64_t sample_requests)
      : engine_(engine), port_(port), seed_(seed), clients_(clients),
        server_clock_(server_clock), sample_limit_(sample_requests),
        lanes_(static_cast<size_t>(lanes)) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      error_ = std::string("epoll_create1: ") + std::strerror(errno);
    }
  }
  ~OpenLoopGenerator() { CloseAll(); }
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  void set_spans(SpanRecorder* spans) { spans_ = spans; }
  const std::string& error() const { return error_; }
  int64_t lost() const { return lost_; }
  int64_t requests_sent() const { return next_request_id_; }

  // Closes every visit and checks the ones not yet checked.
  const VisitTotals& Finish() {
    CloseAll();
    CheckClosedVisits();
    return totals_;
  }

  // Offers `rate` requests/s for `seconds`, then waits for the phase's
  // responses. `abort_backlog` > 0 ends the phase early once that many
  // requests are outstanding (a capacity rung that is clearly overloaded).
  // Visits finished by then are checked after the phase's clock stops.
  PhaseStats RunPhase(double rate, double seconds, int64_t abort_backlog, bool keep_latencies) {
    PhaseStats stats;
    stats.keep_latencies = keep_latencies;
    const int64_t total = std::max<int64_t>(1, std::llround(rate * seconds));
    if (keep_latencies) {
      stats.latency_ns.reserve(static_cast<size_t>(total));
    }
    const double interval_ns = 1e9 / rate;
    const int64_t start_ns = NowNs() + 1000000;  // 1 ms to settle.
    const int64_t last_due_ns = start_ns + static_cast<int64_t>(interval_ns * (total - 1));
    const double cpu_start = ClockS(server_clock_);
    const int64_t span_ns = std::max<int64_t>(1, last_due_ns - start_ns);
    stats.window_lo_ns = start_ns + span_ns / 10;
    stats.window_hi_ns = last_due_ns - span_ns / 10;
    double backlog_area[4] = {0, 0, 0, 0};
    double backlog_time[4] = {0, 0, 0, 0};
    int64_t previous = start_ns;
    int64_t index = 0;
    while (error_.empty()) {
      const int64_t round_start = NowNs();
      bool worked = false;
      // Send everything due.
      while (index < total && !stats.aborted) {
        const int64_t due =
            start_ns + static_cast<int64_t>(interval_ns * static_cast<double>(index));
        if (due > round_start) {
          break;
        }
        if (!Dispatch(static_cast<size_t>(index % static_cast<int64_t>(lanes_.size())), due)) {
          break;  // The lane waits for its previous visit to drain.
        }
        const int64_t late = round_start - due;
        stats.late_ns_sum += static_cast<double>(late);
        stats.late_ns_max = std::max(stats.late_ns_max, late);
        ++stats.sent;
        ++index;
        worked = true;
      }
      worked |= Flush();
      worked |= Poll(&stats);
      worked |= Refill();
      const int64_t now = NowNs();
      if (worked) {
        stats.busy_s += static_cast<double>(now - round_start) * 1e-9;
      }
      const int64_t quarter = (now - start_ns) * 4 / span_ns;
      if (now > start_ns && quarter < 4) {
        const double dt = static_cast<double>(now - previous);
        backlog_area[quarter] += static_cast<double>(outstanding_) * dt;
        backlog_time[quarter] += dt;
      }
      previous = now;
      if (abort_backlog > 0 && outstanding_ > abort_backlog) {
        stats.aborted = true;
      }
      if (index >= total || stats.aborted) {
        if (outstanding_ == 0) {
          break;
        }
        if (now > last_due_ns + kDrainGraceNs) {
          Abandon();
          break;
        }
      }
    }
    stats.wall_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
    stats.server_cpu_s = ClockS(server_clock_) - cpu_start;
    stats.backlog_q2 = backlog_time[1] > 0.0 ? backlog_area[1] / backlog_time[1] : 0.0;
    stats.backlog_q4 = backlog_time[3] > 0.0 ? backlog_area[3] / backlog_time[3] : 0.0;
    CheckClosedVisits();
    return stats;
  }

 private:
  void CloseAll() {
    for (Lane& lane : lanes_) {
      for (std::unique_ptr<Connection>* slot : {&lane.current, &lane.next, &lane.draining}) {
        Close(*slot);
      }
    }
    if (epoll_fd_ >= 0) {
      close(epoll_fd_);
      epoll_fd_ = -1;
    }
  }

  // Checks, in visit order, every visit whose connection has closed, and
  // drops its record.
  void CheckClosedVisits() {
    while (!visits_.empty() && visits_.front().closed) {
      const VisitRecord& visit = visits_.front();
      ++totals_.visits;
      totals_.planned_requests += visit.plan.length;
      totals_.received += visit.received;
      totals_.ok += visit.ok;
      totals_.bundles += visit.bundles;
      totals_.mismatched_visits += MatchesBatchReplay(engine_, visit) ? 0 : 1;
      if (totals_.sample_requests < sample_limit_ && visit.received > 0) {
        totals_.sample.push_back(visit);
        totals_.sample_requests += visit.received;
      }
      visits_.pop_front();
      ++first_visit_;
    }
  }

  // Generator spans cover one request in kSpanSample, chosen by id, so a
  // traced phase at the high rate keeps a span file of a few MB.
  bool Traced(int64_t request_id) const {
    return spans_ != nullptr && request_id % kSpanSample == 0;
  }

  VisitRecord& VisitOf(const Connection& connection) {
    return visits_[static_cast<size_t>(connection.visit - first_visit_)];
  }

  bool Open(std::unique_ptr<Connection>* slot) {
    auto connection = std::make_unique<Connection>();
    connection->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (connection->fd < 0) {
      error_ = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port_);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(connection->fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) !=
        0) {
      error_ = std::string("connect: ") + std::strerror(errno);
      close(connection->fd);
      return false;
    }
    const int enable = 1;
    setsockopt(connection->fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    fcntl(connection->fd, F_SETFL, fcntl(connection->fd, F_GETFL) | O_NONBLOCK);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = connection.get();
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, connection->fd, &event);
    connection->visit = first_visit_ + static_cast<int64_t>(visits_.size());
    visits_.push_back(VisitRecord{PlanVisit(seed_, connection->visit, clients_)});
    *slot = std::move(connection);
    return true;
  }

  void Close(std::unique_ptr<Connection>& slot) {
    if (slot != nullptr) {
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, slot->fd, nullptr);
      close(slot->fd);
      VisitOf(*slot).closed = true;
      slot.reset();
    }
  }

  // Queues request `due` on the lane's current visit, switching to the
  // pre-opened next visit when the current one has sent its last request.
  bool Dispatch(size_t lane_index, int64_t due) {
    Lane& lane = lanes_[lane_index];
    if (lane.current != nullptr &&
        lane.current->sent == VisitOf(*lane.current).plan.length) {
      if (lane.draining != nullptr) {
        return false;
      }
      lane.draining = std::move(lane.current);
      RetireIfDrained(lane);
    }
    if (lane.current == nullptr) {
      if (lane.next == nullptr && !Open(&lane.next)) {
        return false;
      }
      lane.current = std::move(lane.next);
    }
    Connection& connection = *lane.current;
    const VisitPlan& plan = VisitOf(connection).plan;
    const int64_t request_id = next_request_id_++;
    {
      const int span = Traced(request_id) ? spans_->Begin("loadgen.encode", request_id) : -1;
      pad::AppendRequestFrame(VisitRequest(plan, connection.sent), &connection.out);
      if (span >= 0) {
        spans_->End(span);
      }
    }
    ++connection.sent;
    connection.outstanding.push_back(Pending{request_id, due});
    ++outstanding_;
    last_request_id_ = request_id;
    return true;
  }

  bool Flush() {
    bool worked = false;
    for (Lane& lane : lanes_) {
      for (Connection* connection : {lane.current.get(), lane.draining.get()}) {
        if (connection == nullptr || connection->out_offset == connection->out.size()) {
          continue;
        }
        const int span =
            Traced(last_request_id_) ? spans_->Begin("loadgen.send", last_request_id_) : -1;
        const ssize_t wrote =
            pad::SendSome(connection->fd, connection->out.data() + connection->out_offset,
                          connection->out.size() - connection->out_offset);
        if (span >= 0) {
          spans_->End(span);
        }
        if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          error_ = std::string("send: ") + std::strerror(errno);
          return worked;
        }
        if (wrote > 0) {
          connection->out_offset += static_cast<size_t>(wrote);
          if (connection->out_offset == connection->out.size()) {
            connection->out.clear();
            connection->out_offset = 0;
          }
          worked = true;
        }
      }
    }
    return worked;
  }

  bool Poll(PhaseStats* stats) {
    epoll_event events[16];
    const int ready = epoll_wait(epoll_fd_, events, 16, 0);
    bool worked = false;
    for (int i = 0; i < ready; ++i) {
      auto* connection = static_cast<Connection*>(events[i].data.ptr);
      char buffer[16384];
      for (;;) {
        const ssize_t got = pad::ReadSome(connection->fd, buffer, sizeof(buffer));
        if (got <= 0) {
          if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            error_ = "server closed a visit's connection";
          }
          break;
        }
        worked = true;
        if (!connection->reader
                 .Append(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(buffer),
                                                  static_cast<size_t>(got)))
                 .ok()) {
          error_ = "response stream is not framed";
          return worked;
        }
        if (static_cast<size_t>(got) < sizeof(buffer)) {
          break;
        }
      }
      Decode(*connection, stats);
    }
    for (Lane& lane : lanes_) {
      RetireIfDrained(lane);
    }
    return worked;
  }

  void Decode(Connection& connection, PhaseStats* stats) {
    std::string payload;
    bool have = false;
    while (connection.reader.Next(&payload, &have).ok() && have) {
      if (connection.outstanding.empty()) {
        error_ = "a response arrived with no request outstanding";
        return;
      }
      const Pending pending = connection.outstanding.front();
      connection.outstanding.pop_front();
      const int span =
          Traced(pending.request_id) ? spans_->Begin("loadgen.decode", pending.request_id) : -1;
      const pad::StatusOr<pad::WireResponse> response = pad::DecodeResponsePayload(
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(payload.data()),
                                   payload.size()));
      if (span >= 0) {
        spans_->End(span);
      }
      const int64_t now = NowNs();
      const int64_t latency = now - pending.due_ns;
      stats->answered_in_window += now >= stats->window_lo_ns && now < stats->window_hi_ns ? 1 : 0;
      if (stats->keep_latencies) {
        stats->latency_ns.push_back(latency);
      }
      ++stats->answered;
      stats->under_limit += latency < kCapacityP50LimitNs ? 1 : 0;
      --outstanding_;
      VisitRecord& visit = VisitOf(connection);
      visit.digest = Fnv1a(payload.data(), payload.size(), visit.digest);
      ++visit.received;
      if (response.ok() && response->status == pad::ResponseStatus::kOk) {
        ++visit.ok;
        visit.bundles += response->decision == pad::DecisionKind::kBundle ? 1 : 0;
      }
    }
  }

  void RetireIfDrained(Lane& lane) {
    if (lane.draining != nullptr && lane.draining->outstanding.empty() &&
        lane.draining->out_offset == lane.draining->out.size()) {
      Close(lane.draining);
    }
  }

  // Opens one lane's next visit ahead of need, once its old visit is gone.
  bool Refill() {
    for (Lane& lane : lanes_) {
      if (lane.next == nullptr && lane.draining == nullptr) {
        return Open(&lane.next);
      }
    }
    return false;
  }

  // Responses still missing after the grace period count as lost; their
  // visits are closed so a late answer cannot be attributed to a later phase.
  void Abandon() {
    for (Lane& lane : lanes_) {
      for (std::unique_ptr<Connection>* slot : {&lane.current, &lane.draining}) {
        if (*slot != nullptr) {
          lost_ += static_cast<int64_t>((*slot)->outstanding.size());
          Close(*slot);
        }
      }
    }
    outstanding_ = 0;
  }

  const pad::DecisionEngine& engine_;
  uint16_t port_;
  uint64_t seed_;
  int clients_;
  clockid_t server_clock_;
  int64_t sample_limit_;
  int epoll_fd_ = -1;
  std::vector<Lane> lanes_;
  // Visits not yet checked; visits_[i] is visit first_visit_ + i.
  std::deque<VisitRecord> visits_;
  int64_t first_visit_ = 0;
  VisitTotals totals_;
  SpanRecorder* spans_ = nullptr;
  std::string error_;
  int64_t next_request_id_ = 0;
  int64_t last_request_id_ = 0;
  int64_t outstanding_ = 0;  // Phases never overlap: all belong to the running one.
  int64_t lost_ = 0;
};

// The capacity criterion: responses kept pace with the offered rate within
// 1 %, the backlog did not grow from the second quarter to the fourth, and
// the median stayed under the latency bar.
bool Sustained(const PhaseStats& stats, double rate) {
  const double window_s = static_cast<double>(stats.window_hi_ns - stats.window_lo_ns) * 1e-9;
  const double slack = std::max(16.0, rate * 200e-6);  // 200 us of arrivals.
  return !stats.aborted &&
         static_cast<double>(stats.answered_in_window) >= 0.99 * rate * window_s &&
         stats.backlog_q4 <= 2.0 * stats.backlog_q2 + slack &&
         2 * stats.under_limit > stats.answered;
}

// Geometric search for the highest sustained rate, repeated while the
// budget of rung time lasts. A host stall can fail a rung but never pass
// one, so the searches' results scatter below the server's capacity (one
// run's ranged 250-500k/s): the upper quartile of them is the estimate.
struct CapacityResult {
  double qps = 0.0;
  std::vector<double> found;  // Each search's result, in order.
  double busy_frac = 0.0;
  double late_us_mean = 0.0;
  double late_us_max = 0.0;
};

CapacityResult SearchCapacity(OpenLoopGenerator& generator, double budget_s, double rung_s,
                              uint64_t seed) {
  CapacityResult result;
  std::vector<double> found;
  double busy = 0.0, wall = 0.0, late_sum = 0.0, late_max = 0.0;
  int64_t sent = 0;
  // A seed-dependent start keeps the searched rates off one fixed grid.
  const double jitter = static_cast<double>(SplitMix64(seed) >> 11) * 0x1p-53;  // [0, 1)
  double guess = 2.0 * kHighQps * (1.0 + 0.25 * jitter);
  const auto rung = [&](double rate) {
    const PhaseStats stats = generator.RunPhase(
        rate, rung_s, std::max<int64_t>(256, std::llround(rate * 0.05)), false);
    busy += stats.busy_s;
    wall += stats.wall_s;
    late_sum += stats.late_ns_sum;
    late_max = std::max(late_max, static_cast<double>(stats.late_ns_max));
    sent += stats.sent;
    return Sustained(stats, rate);
  };
  while (wall < budget_s && generator.error().empty()) {
    // Bracket [lo sustained, hi not], starting around the last answer.
    double lo = guess / 1.25;
    double hi = guess * 1.25;
    while (!rung(lo) && lo > kLowQps) {
      hi = lo;
      lo = std::max(kLowQps, lo / 1.5);
    }
    while (rung(hi) && wall < budget_s) {
      lo = hi;
      hi *= 1.5;
    }
    while (hi / lo > 1.03 && wall < budget_s) {
      const double mid = std::sqrt(lo * hi);
      (rung(mid) ? lo : hi) = mid;
    }
    if (hi / lo <= 1.03 || found.empty()) {
      found.push_back(lo);
    }
    guess = Median(found);
  }
  result.qps = Quantile(found, 0.75);
  result.found = std::move(found);
  result.busy_frac = wall > 0.0 ? busy / wall : 0.0;
  result.late_us_mean = sent > 0 ? late_sum / static_cast<double>(sent) / 1000.0 : 0.0;
  result.late_us_max = late_max / 1000.0;
  return result;
}

// Engine build + bind/listen: the serving path's set-up.
struct Serving {
  std::unique_ptr<pad::DecisionEngine> engine;
  std::unique_ptr<pad::AdServer> server;
};

pad::StatusOr<Serving> StartServing(const pad::ServeConfig& config) {
  Serving serving;
  PAD_ASSIGN_OR_RETURN(serving.engine, pad::DecisionEngine::Create(config));
  serving.server = std::make_unique<pad::AdServer>(*serving.engine, pad::AdServerOptions{});
  PAD_RETURN_IF_ERROR(serving.server->Start());
  return serving;
}

// Per-request costs of the serving calls, replayed outside the server on a
// fresh session per visit; one span per visit and stage.
struct ReplayCosts {
  double decide_us = 0.0, decode_us = 0.0, encode_us = 0.0, frame_reader_us = 0.0;
};

ReplayCosts ReplayRequests(const pad::DecisionEngine& engine,
                           const std::vector<VisitRecord>& visits, SpanRecorder* spans,
                           Outcome* outcome) {
  ReplayCosts costs;
  int64_t requests = 0;
  int64_t encoded_bytes = 0;
  for (const VisitRecord& visit : visits) {
    const int64_t trace_id = requests;  // Replay order's first request of the visit.
    std::string frames;
    for (int i = 0; i < visit.received; ++i) {
      pad::AppendRequestFrame(VisitRequest(visit.plan, i), &frames);
    }
    std::vector<std::string> payloads(static_cast<size_t>(visit.received));
    {
      ScopedSpan span(spans, "serve.frame_reader", trace_id);
      pad::FrameReader reader;
      // One request frame per Append, the way a low-rate read delivers them.
      const size_t frame_bytes = pad::kFrameHeaderBytes + pad::kRequestPayloadBytes;
      for (int i = 0; i < visit.received; ++i) {
        bool have = false;
        reader.Append(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(frames.data()) + frame_bytes * static_cast<size_t>(i),
            frame_bytes));
        reader.Next(&payloads[static_cast<size_t>(i)], &have);
      }
    }
    std::vector<pad::WireRequest> decoded;
    {
      ScopedSpan span(spans, "serve.decode", trace_id);
      for (const std::string& payload : payloads) {
        decoded.push_back(*pad::DecodeRequestPayload(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(payload.data()), payload.size())));
      }
    }
    std::vector<pad::WireResponse> responses;
    {
      ScopedSpan span(spans, "serve.decide", trace_id);
      pad::DecisionEngine::Session session = engine.NewSession();
      for (const pad::WireRequest& request : decoded) {
        responses.push_back(engine.Decide(session, request));
      }
    }
    {
      ScopedSpan span(spans, "serve.encode", trace_id);
      for (const pad::WireResponse& response : responses) {
        encoded_bytes += static_cast<int64_t>(pad::EncodeResponsePayload(response).size());
      }
    }
    requests += visit.received;
  }
  outcome->Check(requests == 0 || encoded_bytes > 0, "replay encoded no response bytes");
  const double per_request_us = requests > 0 ? 1e6 / static_cast<double>(requests) : 0.0;
  costs.decide_us = spans->TotalS("serve.decide") * per_request_us;
  costs.decode_us = spans->TotalS("serve.decode") * per_request_us;
  costs.encode_us = spans->TotalS("serve.encode") * per_request_us;
  costs.frame_reader_us = spans->TotalS("serve.frame_reader") * per_request_us;
  return costs;
}

// The snapshot build's per-client work, replayed from outside: trace
// generation, slot expansion, window binning, and the campaign stream.
void ReplaySnapshot(const pad::ServeConfig& config, SpanRecorder* spans, Outcome* outcome) {
  const pad::PadConfig cfg = pad::AlignInputsConfig(config.pad);
  const pad::AppCatalog catalog = pad::AppCatalog::TopFifteen();
  pad::PopulationStream stream(cfg.population);
  int64_t sessions = 0;
  for (int64_t u = 0; u < cfg.population.num_users; ++u) {
    pad::Population block;
    {
      ScopedSpan span(spans, "trace.generate", u);
      block = stream.NextBlock(1);
    }
    sessions += static_cast<int64_t>(block.users[0].sessions.size());
    std::vector<pad::SlotEvent> slots;
    {
      ScopedSpan span(spans, "apps.expand", u);
      slots = pad::SlotsForUser(catalog, block.users[0]);
    }
    ScopedSpan span(spans, "prediction.warm", u);
    const pad::SlotSeries series =
        pad::BinSlots(slots, cfg.population.horizon_s, cfg.prediction_window_s);
    outcome->Check(series.num_windows() > 0, "snapshot replay: a client has no windows");
  }
  {
    ScopedSpan span(spans, "auction.campaigns", 0);
    outcome->Check(!pad::GenerateCampaignStream(cfg.campaigns).empty(),
                   "snapshot replay: empty campaign stream");
  }
  const double users = static_cast<double>(cfg.population.num_users);
  outcome->Set("trace.generate_ms_per_user", spans->TotalS("trace.generate") * 1000.0 / users);
  outcome->Set("trace.sessions", static_cast<double>(sessions));
  outcome->Set("apps.expand_ms_per_user", spans->TotalS("apps.expand") * 1000.0 / users);
  outcome->Set("prediction.warm_ms_per_user", spans->TotalS("prediction.warm") * 1000.0 / users);
  outcome->Set("auction.campaigns_ms_per_market", spans->TotalS("auction.campaigns") * 1000.0);
}

// Pins the generator (the calling thread) and the server thread to two
// distinct allowed CPUs, so a run's wake-up latencies do not depend on where
// the scheduler happened to place and migrate them. False (and no pinning)
// when fewer than two CPUs are allowed.
bool PinThreads(pthread_t server) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return false;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  if (cpus.size() < 2) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[1], &one);
  if (pthread_setaffinity_np(server, sizeof(one), &one) != 0) {
    return false;
  }
  CPU_ZERO(&one);
  CPU_SET(cpus[0], &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

Outcome RunServeWorkload(const RunArgs& args) {
  Outcome outcome;
  const ServeShape shape = ShapeFor(args);
  const pad::ServeConfig config = MakeServeConfig(shape, args.seed);
  const int lanes = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)) / 2);

  // Set-up, repeated; the last instance serves the run.
  std::vector<double> setup_s;
  Serving serving;
  for (int i = 0; i < shape.setup_repeats; ++i) {
    serving = Serving{};
    const double start = NowS();
    pad::StatusOr<Serving> started = StartServing(config);
    setup_s.push_back(NowS() - start);
    if (!started.ok()) {
      outcome.Check(false, "serving set-up failed: " + started.status().ToString());
      return outcome;
    }
    serving = *std::move(started);
  }
  pad::AdServer& server = *serving.server;
  std::thread server_thread([&server] { server.Run(); });
  clockid_t server_clock{};
  pthread_getcpuclockid(server_thread.native_handle(), &server_clock);
  const bool pinned = PinThreads(server_thread.native_handle());
  outcome.params.Set("pinned", pad::JsonValue(pinned));

  const EnvSample env_start = SampleEnv();
  const double seconds = args.seconds;
  FixedRate low, high, high_plain, high_traced;
  CapacityResult capacity;
  SpanRecorder spans;
  VisitTotals visits;
  int64_t sent = 0;
  int64_t lost = 0;
  std::string generator_error;
  {
    OpenLoopGenerator generator(*serving.engine, server.port(), args.seed, shape.clients, lanes,
                                server_clock, args.trace ? kReplayRequests : 0);
    for (int block = 0; block < kBlocks; ++block) {
      low.blocks.push_back(generator.RunPhase(kLowQps, 0.2 * seconds / kBlocks, 0, true));
      high.blocks.push_back(generator.RunPhase(kHighQps, 0.2 * seconds / kBlocks, 0, true));
    }
    capacity = SearchCapacity(generator, 0.6 * seconds, std::clamp(seconds / 120.0, 0.1, 0.25),
                              args.seed);
    if (args.trace) {
      // Untraced and traced high-rate blocks alternate, so the overhead
      // estimate compares like with like.
      for (int block = 0; block < kBlocks; ++block) {
        high_plain.blocks.push_back(
            generator.RunPhase(kHighQps, 0.1 * seconds / kBlocks, 0, true));
        generator.set_spans(&spans);
        high_traced.blocks.push_back(
            generator.RunPhase(kHighQps, 0.1 * seconds / kBlocks, 0, true));
        generator.set_spans(nullptr);
      }
    }
    visits = generator.Finish();
    sent = generator.requests_sent();
    lost = generator.lost();
    generator_error = generator.error();
  }
  server.RequestDrain();
  server_thread.join();
  const EnvSample env_end = SampleEnv();
  outcome.Check(generator_error.empty(), "load generator: " + generator_error);
  const pad::AdServerStats& stats = server.stats();
  outcome.Check(stats.protocol_errors == 0, "the server saw protocol errors");
  outcome.Check(visits.mismatched_visits == 0,
                std::to_string(visits.mismatched_visits) +
                    " visits' response bytes differ from a DecideBatch replay");
  outcome.Check(visits.received + lost == sent, "responses + lost != requests sent");
  outcome.attempted = sent;
  outcome.failed = sent - visits.ok;
  const double mean_visit =
      static_cast<double>(visits.planned_requests) / static_cast<double>(visits.visits);
  AddEnvMetrics(env_start, env_end, args.trace, &outcome);
  outcome.params.Set("clients", pad::JsonValue(shape.clients));
  outcome.params.Set("lanes", pad::JsonValue(lanes));
  outcome.params.Set("low_qps", pad::JsonValue(kLowQps));
  outcome.params.Set("high_qps", pad::JsonValue(kHighQps));
  pad::JsonValue found = pad::JsonValue::Array();
  for (const double qps : capacity.found) {
    found.Append(pad::JsonValue(qps));
  }
  outcome.params.Set("capacity_found", std::move(found));
  outcome.params.Set("visits", pad::JsonValue(visits.visits));

  if (!args.trace) {
    outcome.Set("users_per_s", capacity.qps / mean_visit);
    outcome.Set("cpu_ms_per_user",
                high.ServerCpuUsPerRequest() * mean_visit / 1000.0);
    outcome.Set("peak_rss_mib", PeakRssMib());
    outcome.Set("success_rate", static_cast<double>(visits.ok) / static_cast<double>(sent));
    outcome.Set("setup_s", Median(setup_s));
    outcome.Set("p50_us_low", low.P50Us());
    outcome.Set("p50_us_high", high.P50Us());
    outcome.Set("capacity_qps", capacity.qps);
    return outcome;
  }

  ReplaySnapshot(config, &spans, &outcome);
  const ReplayCosts costs = ReplayRequests(*serving.engine, visits.sample, &spans, &outcome);
  outcome.Set("serve.server_cpu_us_per_req_low",
              low.ServerCpuUsPerRequest());
  outcome.Set("serve.server_cpu_us_per_req_high",
              high.ServerCpuUsPerRequest());
  outcome.Set("serve.decide_us", costs.decide_us);
  outcome.Set("serve.decode_us", costs.decode_us);
  outcome.Set("serve.encode_us", costs.encode_us);
  outcome.Set("serve.frame_reader_us", costs.frame_reader_us);
  outcome.Set("serve.socket_us",
              low.P50Us() - (costs.decode_us + costs.decide_us + costs.encode_us));
  outcome.Set("serve.p99_us_low", low.P99Us());
  outcome.Set("serve.p99_us_high", high.P99Us());
  outcome.Set("serve.bundle_share",
              static_cast<double>(visits.bundles) / static_cast<double>(visits.received));
  outcome.Set("serve.accepted", static_cast<double>(stats.accepted));
  outcome.Set("serve.served", static_cast<double>(stats.served));
  outcome.Set("serve.backpressure_pauses", static_cast<double>(stats.backpressure_pauses));
  outcome.Set("serve.shed", static_cast<double>(stats.shed));
  outcome.Set("serve.protocol_errors", static_cast<double>(stats.protocol_errors));
  outcome.Set("loadgen.late_us_mean", capacity.late_us_mean);
  outcome.Set("loadgen.late_us_max", capacity.late_us_max);
  outcome.Set("loadgen.busy_frac", capacity.busy_frac);
  outcome.Set("tracing.overhead_frac", high_traced.P50Us() / high_plain.P50Us() - 1.0);

  std::string error;
  const std::string span_path = args.work_dir + "/serve-open-spans.json";
  outcome.Check(spans.WriteJson(span_path, &error), error);
  outcome.params.Set("span_file", pad::JsonValue(span_path));
  return outcome;
}

}  // namespace perfbench
