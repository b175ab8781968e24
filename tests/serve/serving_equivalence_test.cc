// Loopback integration: the serving front end's contract is that the bytes a
// connection reads off the socket are identical to the bytes a batch replay
// of that connection's requests through the DecisionEngine would encode —
// regardless of how the event loop interleaves concurrent connections. Also
// covered: admission-control shedding never corrupts admitted sessions, and
// a graceful drain answers pending work before closing.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/serve/ad_server.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/load_gen.h"
#include "src/serve/session_adapter.h"
#include "src/serve/wire.h"

namespace pad {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// A minimal blocking client for the tests that need finer control than the
// load generator exposes (parked connections, partial writes, drain timing).
class BlockingClient {
 public:
  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
      close(fd_);
      fd_ = -1;
      return false;
    }
    const int enable = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    return true;
  }

  ~BlockingClient() {
    if (fd_ >= 0) {
      close(fd_);
    }
  }

  bool Send(const std::string& bytes) {
    size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n = send(fd_, bytes.data() + offset, bytes.size() - offset, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      offset += static_cast<size_t>(n);
    }
    return true;
  }

  bool SendRequest(const WireRequest& request) {
    std::string frame;
    AppendRequestFrame(request, &frame);
    return Send(frame);
  }

  // Reads until a full frame is available; false on EOF/error first.
  bool ReadPayload(std::string* payload) {
    bool have = false;
    while (true) {
      if (!reader_.Next(payload, &have).ok()) {
        return false;
      }
      if (have) {
        return true;
      }
      char buffer[4096];
      const ssize_t n = read(fd_, buffer, sizeof(buffer));
      if (n <= 0) {
        return false;
      }
      if (!reader_.Append(Bytes(std::string(buffer, static_cast<size_t>(n)))).ok()) {
        return false;
      }
    }
  }

  // True iff the peer cleanly closed with no residual frame bytes.
  bool ReadEof() {
    char buffer[256];
    const ssize_t n = read(fd_, buffer, sizeof(buffer));
    return n == 0 && reader_.pending_bytes() == 0;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

class ServingEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServeConfig config = DefaultServeConfig(24);
    StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  // Starts a server on an ephemeral loopback port and runs it on its own
  // thread; the returned lambda drains and joins.
  static std::thread RunServer(AdServer& server) {
    return std::thread([&server] { server.Run(); });
  }

  static DecisionEngine* engine_;
};

DecisionEngine* ServingEquivalenceTest::engine_ = nullptr;

TEST_F(ServingEquivalenceTest, ServedBytesEqualBatchBytes) {
  AdServerOptions options;
  AdServer server(*engine_, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread server_thread = RunServer(server);

  LoadGenOptions load;
  load.port = server.port();
  load.connections = 6;
  load.requests_per_connection = 80;
  load.client_count = engine_->num_clients();
  load.seed = 77;
  load.max_slots = 4;
  load.capture_responses = true;

  LatencyHistogram latency;
  LoadGenReport report;
  const Status run = RunLoadGen(load, latency, &report);
  server.RequestDrain();
  server_thread.join();
  ASSERT_TRUE(run.ok()) << run.ToString();

  ASSERT_EQ(report.errors, 0);
  ASSERT_EQ(report.shed, 0);
  ASSERT_EQ(report.responses,
            static_cast<int64_t>(load.connections) * load.requests_per_connection);
  EXPECT_EQ(static_cast<uint64_t>(report.responses), latency.count());
  EXPECT_EQ(server.stats().served, report.responses);
  EXPECT_EQ(server.stats().accepted, load.connections);
  EXPECT_EQ(server.stats().protocol_errors, 0);

  // The contract: per connection, served bytes == encoded batch replay.
  for (int c = 0; c < load.connections; ++c) {
    const std::vector<WireRequest> plan = BuildRequestPlan(load, c);
    const std::vector<WireResponse> expected = engine_->DecideBatch(plan);
    const std::vector<std::string>& got = report.captured[static_cast<size_t>(c)];
    ASSERT_EQ(got.size(), expected.size()) << "connection " << c;
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(got[r], EncodeResponsePayload(expected[r]))
          << "connection " << c << " request " << r;
    }
  }
}

TEST_F(ServingEquivalenceTest, RepeatedRunsServeIdenticalBytes) {
  // Same seed, two separate servers and load-gen runs: every captured byte
  // stream repeats, because nothing about decisions depends on timing.
  LoadGenOptions load;
  load.connections = 3;
  load.requests_per_connection = 40;
  load.client_count = engine_->num_clients();
  load.seed = 5;
  load.capture_responses = true;

  std::vector<LoadGenReport> reports(2);
  for (int round = 0; round < 2; ++round) {
    AdServerOptions options;
    AdServer server(*engine_, options);
    ASSERT_TRUE(server.Start().ok());
    std::thread server_thread = RunServer(server);
    load.port = server.port();
    LatencyHistogram latency;
    ASSERT_TRUE(RunLoadGen(load, latency, &reports[static_cast<size_t>(round)]).ok());
    server.RequestDrain();
    server_thread.join();
    ASSERT_EQ(reports[static_cast<size_t>(round)].errors, 0);
  }
  EXPECT_EQ(reports[0].captured, reports[1].captured);
}

TEST_F(ServingEquivalenceTest, MalformedFrameGetsBadRequestThenClose) {
  AdServerOptions options;
  AdServer server(*engine_, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread server_thread = RunServer(server);

  {
    BlockingClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    // A syntactically framed payload with a bad version byte.
    std::string payload = EncodeRequestPayload(WireRequest{0, 1, 60.0});
    payload[0] = 9;
    std::string frame;
    PutU32(&frame, static_cast<uint32_t>(payload.size()));
    frame += payload;
    ASSERT_TRUE(client.Send(frame));
    std::string response_payload;
    ASSERT_TRUE(client.ReadPayload(&response_payload));
    const StatusOr<WireResponse> response = DecodeResponsePayload(Bytes(response_payload));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, ResponseStatus::kBadRequest);
    EXPECT_TRUE(client.ReadEof());
  }

  server.RequestDrain();
  server_thread.join();
  EXPECT_EQ(server.stats().protocol_errors, 1);
}

TEST_F(ServingEquivalenceTest, OverloadShedsNewcomersWithoutCorruptingSessions) {
  AdServerOptions options;
  options.max_sessions = 2;
  AdServer server(*engine_, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread server_thread = RunServer(server);

  // Two admitted sessions, each confirmed live with one answered request so
  // the accept is complete before the overload traffic arrives.
  std::vector<WireRequest> parked_plan = {WireRequest{0, 2, 3600.0},
                                          WireRequest{1, 3, 3600.0},
                                          WireRequest{0, 1, 1800.0}};
  BlockingClient parked[2];
  std::vector<std::string> parked_payloads[2];
  for (int p = 0; p < 2; ++p) {
    ASSERT_TRUE(parked[p].Connect(server.port()));
    ASSERT_TRUE(parked[p].SendRequest(parked_plan[0]));
    std::string payload;
    ASSERT_TRUE(parked[p].ReadPayload(&payload));
    parked_payloads[p].push_back(payload);
  }

  // Every further connection must be shed without ever reaching a decision.
  LoadGenOptions load;
  load.port = server.port();
  load.connections = 4;
  load.requests_per_connection = 10;
  load.client_count = engine_->num_clients();
  LatencyHistogram latency;
  LoadGenReport report;
  ASSERT_TRUE(RunLoadGen(load, latency, &report).ok());
  EXPECT_EQ(report.shed, 4);
  EXPECT_EQ(report.responses, 0);
  EXPECT_EQ(report.errors, 0);

  // The admitted sessions continue exactly on their batch trajectory.
  for (size_t r = 1; r < parked_plan.size(); ++r) {
    for (int p = 0; p < 2; ++p) {
      ASSERT_TRUE(parked[p].SendRequest(parked_plan[r]));
      std::string payload;
      ASSERT_TRUE(parked[p].ReadPayload(&payload));
      parked_payloads[p].push_back(payload);
    }
  }
  const std::vector<WireResponse> expected = engine_->DecideBatch(parked_plan);
  for (int p = 0; p < 2; ++p) {
    ASSERT_EQ(parked_payloads[p].size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(parked_payloads[p][r], EncodeResponsePayload(expected[r]))
          << "parked " << p << " request " << r;
    }
  }

  server.RequestDrain();
  server_thread.join();
  EXPECT_EQ(server.stats().shed, 4);
  EXPECT_EQ(server.stats().accepted, 2);
}

TEST_F(ServingEquivalenceTest, GracefulDrainAnswersThenCloses) {
  AdServerOptions options;
  AdServer server(*engine_, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread server_thread = RunServer(server);

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Several answered requests prove the session is live and build history.
  std::vector<WireRequest> plan = {WireRequest{2, 2, 3600.0}, WireRequest{2, 4, 3600.0},
                                   WireRequest{2, 1, 7200.0}};
  std::vector<std::string> payloads;
  for (const WireRequest& request : plan) {
    ASSERT_TRUE(client.SendRequest(request));
    std::string payload;
    ASSERT_TRUE(client.ReadPayload(&payload));
    payloads.push_back(payload);
  }
  const std::vector<WireResponse> expected = engine_->DecideBatch(plan);
  for (size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(payloads[r], EncodeResponsePayload(expected[r]));
  }

  // Drain with the connection idle: the server closes it (clean EOF, no
  // stray bytes) and Run() returns. Nothing already answered was cut off.
  server.RequestDrain();
  EXPECT_TRUE(client.ReadEof());
  server_thread.join();
  EXPECT_EQ(server.stats().served, static_cast<int64_t>(plan.size()));

  // A connect after drain finds no listener.
  BlockingClient late;
  EXPECT_FALSE(late.Connect(server.port()));
}

TEST_F(ServingEquivalenceTest, PipelinedRequestsAnswerInOrder) {
  AdServerOptions options;
  AdServer server(*engine_, options);
  ASSERT_TRUE(server.Start().ok());
  std::thread server_thread = RunServer(server);

  BlockingClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  // Fire the whole plan without waiting — one kernel burst, many frames per
  // read on the server side — then collect every response.
  std::vector<WireRequest> plan;
  std::string burst;
  for (int r = 0; r < 120; ++r) {
    plan.push_back(WireRequest{static_cast<uint64_t>(r % engine_->num_clients()),
                               1 + static_cast<uint32_t>(r % 4), 3600.0});
    AppendRequestFrame(plan.back(), &burst);
  }
  ASSERT_TRUE(client.Send(burst));
  const std::vector<WireResponse> expected = engine_->DecideBatch(plan);
  for (size_t r = 0; r < expected.size(); ++r) {
    std::string payload;
    ASSERT_TRUE(client.ReadPayload(&payload)) << "response " << r;
    ASSERT_EQ(payload, EncodeResponsePayload(expected[r])) << "response " << r;
  }

  server.RequestDrain();
  server_thread.join();
}

}  // namespace
}  // namespace pad
