#include "src/serve/ad_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "src/common/sockio.h"

namespace pad {
namespace {

constexpr size_t kReadChunk = 16 * 1024;
// Compact the output buffer once the flushed prefix dominates it; keeps a
// long-lived slowly-draining connection from growing `out` without bound
// while staying O(1) amortized.
constexpr size_t kCompactThreshold = 64 * 1024;

}  // namespace

AdServer::AdServer(const DecisionEngine& engine, AdServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      chaos_(options_.chaos, options_.chaos_seed) {
  WireResponse shed;
  shed.status = ResponseStatus::kOverloaded;
  AppendResponseFrame(shed, &shed_frame_);
}

AdServer::~AdServer() {
  for (auto& [fd, connection] : connections_) {
    close(fd);
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
}

Status AdServer::Start() {
  PAD_RETURN_IF_ERROR(loop_.status());
  if (options_.max_inflight < 1) {
    return Status::InvalidArgument("max_inflight must be >= 1, got " +
                                   std::to_string(options_.max_inflight));
  }
  if (options_.max_out_bytes < shed_frame_.size()) {
    return Status::InvalidArgument("max_out_bytes must hold at least one frame");
  }
  if (options_.idle_timeout_ms < 0 || options_.write_stall_ms < 0) {
    return Status::InvalidArgument("deadlines must be >= 0 ms");
  }
  if (options_.so_sndbuf < 0) {
    return Status::InvalidArgument("so_sndbuf must be >= 0, got " +
                                   std::to_string(options_.so_sndbuf));
  }
  PAD_RETURN_IF_ERROR(ValidateChaosConfig(options_.chaos));
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    return Status::InvalidArgument("unparseable bind host '" + options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    return Status::Unavailable(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(listen_fd_, options_.accept_backlog) != 0) {
    return Status::Unavailable(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return Status::Unavailable(std::string("getsockname: ") + std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);

  PAD_RETURN_IF_ERROR(loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { HandleAccept(); }));
  loop_.set_round_hook([this] { RoundHook(); });
  if (options_.idle_timeout_ms > 0 || options_.write_stall_ms > 0) {
    ArmSweep();
  }
  return Status::Ok();
}

void AdServer::Run() { loop_.Run(); }

void AdServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  loop_.Wake();
}

void AdServer::ArmSweep() {
  // Sweep at a quarter of the tightest enabled deadline, so a deadline is
  // detected at most ~25% late, floor 1 ms.
  uint64_t tightest = UINT64_MAX;
  if (options_.idle_timeout_ms > 0) {
    tightest = std::min<uint64_t>(tightest, static_cast<uint64_t>(options_.idle_timeout_ms));
  }
  if (options_.write_stall_ms > 0) {
    tightest = std::min<uint64_t>(tightest, static_cast<uint64_t>(options_.write_stall_ms));
  }
  const uint64_t period = std::max<uint64_t>(1, tightest / 4);
  loop_.AddTimer(period, [this] {
    SweepDeadlines();
    ArmSweep();
  });
}

void AdServer::SweepDeadlines() {
  const uint64_t now = EventLoop::NowMs();
  // Collect fds first: closing erases from the map under us.
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, connection] : connections_) {
    fds.push_back(fd);
  }
  for (const int fd : fds) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) {
      continue;
    }
    Connection& connection = *it->second;
    if (options_.idle_timeout_ms > 0 && connection.pending_out() == 0 &&
        !connection.close_after_flush &&
        now - connection.last_activity_ms >=
            static_cast<uint64_t>(options_.idle_timeout_ms)) {
      ++stats_.idle_timeouts;
      CloseNow(connection);
      continue;
    }
    if (options_.write_stall_ms > 0 && connection.pending_out() > 0 &&
        !connection.evicted &&
        now - connection.last_write_progress_ms >=
            static_cast<uint64_t>(options_.write_stall_ms)) {
      Evict(connection);
    }
  }
}

void AdServer::HandleAccept() {
  while (true) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN, or a transient accept error — nothing to do either way.
    }
    if (static_cast<int>(connections_.size()) >= options_.max_sessions) {
      // Load shed: one pre-encoded kOverloaded frame, best effort (a fresh
      // connection's send buffer always has room for 12 bytes), then close.
      // The client sees a definite "try later", not a hang.
      [[maybe_unused]] const ssize_t ignored =
          SendSome(fd, shed_frame_.data(), shed_frame_.size());
      close(fd);
      ++stats_.shed;
      continue;
    }
    const int enable = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    if (options_.so_sndbuf > 0) {
      setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                 sizeof(options_.so_sndbuf));
    }
    auto connection = std::make_unique<Connection>(options_.max_frame_payload);
    connection->fd = fd;
    connection->id = next_connection_id_++;
    connection->session = engine_.NewSession();
    // EPOLLRDHUP is in the interest set for the connection's whole life,
    // even while reads are paused for backpressure: a half-close must be
    // seen (and counted) the moment it happens, not when reads resume.
    connection->mask = EPOLLIN | EPOLLRDHUP;
    const uint64_t now = EventLoop::NowMs();
    connection->last_activity_ms = now;
    connection->last_write_progress_ms = now;
    const Status added =
        loop_.Add(fd, connection->mask, [this, fd](uint32_t events) { HandleConnection(fd, events); });
    if (!added.ok()) {
      close(fd);
      continue;
    }
    ++stats_.accepted;
    connections_.emplace(fd, std::move(connection));
  }
}

void AdServer::HandleConnection(int fd, uint32_t events) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) {
    return;
  }
  Connection& connection = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseNow(connection);
    return;
  }
  if ((events & EPOLLRDHUP) != 0 && !connection.rdhup_seen) {
    // Peer shutdown(SHUT_WR): its requests are all in flight or buffered.
    // Drain-then-close: keep reading to EOF, answer everything, flush. The
    // read loop's n == 0 arms close_after_flush; nothing else to do here.
    connection.rdhup_seen = true;
    ++stats_.half_closed;
  }
  if ((events & EPOLLIN) != 0 && (connection.mask & EPOLLIN) != 0) {
    if (!ReadInput(connection)) {
      return;  // Connection destroyed.
    }
  }
  Advance(fd);
}

bool AdServer::ReadInput(Connection& connection) {
  // Chaos read stall: park EPOLLIN, resume via a one-shot timer. Decided
  // once per inbound frame index, so it is reproducible and finite.
  if (chaos_.enabled() && chaos_.StallRead(connection.id, connection.rx_frames) &&
      connection.last_stalled_rx != connection.rx_frames) {
    connection.last_stalled_rx = connection.rx_frames;
    connection.chaos_stalled = true;
    ++stats_.chaos_stalls;
    const int fd = connection.fd;
    connection.resume_timer = loop_.AddTimer(
        static_cast<uint64_t>(options_.chaos.stall_ms), [this, fd] {
          const auto it = connections_.find(fd);
          if (it == connections_.end()) {
            return;  // Closed while stalled; timer cancel raced the close.
          }
          it->second->resume_timer = 0;
          it->second->chaos_stalled = false;
          UpdateInterest(*it->second);
        });
    return true;  // No read this round; level-triggered epoll re-fires later.
  }
  char buffer[kReadChunk];
  while (true) {
    // Chaos dribble: deliver this frame one byte per dispatch round,
    // exercising incremental reassembly across epoll rounds.
    const bool dribble =
        chaos_.enabled() && chaos_.DribbleRead(connection.id, connection.rx_frames);
    if (dribble && connection.last_dribbled_rx != connection.rx_frames) {
      connection.last_dribbled_rx = connection.rx_frames;
      ++stats_.chaos_dribbled_reads;
    }
    const ssize_t n = ReadSome(connection.fd, buffer, dribble ? 1 : sizeof(buffer));
    if (n > 0) {
      connection.last_activity_ms = EventLoop::NowMs();
      const Status appended = connection.reader.Append(
          std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(buffer),
                                   static_cast<size_t>(n)));
      if (!appended.ok()) {
        break;  // Poisoned reader; ProcessFrames reports and closes.
      }
      // A dribbled frame gets one byte this round, and a short read has
      // emptied the socket: either way stop here, as level-triggered epoll
      // fires again once more is readable (EOF included). Reading on to
      // EAGAIN would add a failed read to every readiness event.
      if (dribble || static_cast<size_t>(n) < sizeof(buffer)) {
        break;
      }
      continue;
    }
    if (n == 0) {
      // Peer finished sending. Answer what arrived, flush, then close.
      connection.close_after_flush = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    // Hard error (ECONNRESET and friends): the peer is gone, nothing owed.
    CloseNow(connection);
    return false;
  }
  return true;
}

bool AdServer::Capped(const Connection& connection) const {
  return connection.frame_ends.size() >= static_cast<size_t>(options_.max_inflight) ||
         connection.pending_out() > options_.max_out_bytes;
}

void AdServer::AppendResponse(Connection& connection, const WireResponse& response) {
  AppendResponseFrame(response, &connection.out);
  connection.frame_ends.push_back(connection.out.size());
}

void AdServer::ProcessFrames(Connection& connection, bool ignore_caps) {
  if (connection.evicted || connection.bad_frames) {
    return;  // Evicted input is void; a reported protocol error is final.
  }
  std::string payload;
  bool have = false;
  while (true) {
    if (!ignore_caps && Capped(connection)) {
      return;  // Backpressure: leave the rest framed in the reader.
    }
    const Status framed = connection.reader.Next(&payload, &have);
    if (!framed.ok()) {
      // Unframeable stream: answer with one kBadRequest so the client learns
      // why, then hang up. Nothing after a framing error is trustworthy.
      WireResponse error;
      error.status = ResponseStatus::kBadRequest;
      AppendResponse(connection, error);
      connection.close_after_flush = true;
      connection.bad_frames = true;
      ++stats_.protocol_errors;
      return;
    }
    if (!have) {
      return;
    }
    ++connection.rx_frames;
    const StatusOr<WireRequest> request = DecodeRequestPayload(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(payload.data()),
                                 payload.size()));
    if (!request.ok()) {
      WireResponse error;
      error.status = ResponseStatus::kBadRequest;
      AppendResponse(connection, error);
      connection.close_after_flush = true;
      connection.bad_frames = true;
      ++stats_.protocol_errors;
      return;
    }
    const WireResponse response = engine_.Decide(connection.session, *request);
    AppendResponse(connection, response);
    ++stats_.served;
  }
}

bool AdServer::FlushOutput(Connection& connection) {
  while (connection.pending_out() > 0) {
    // Send up to the end of the buffer — unless the chaos plan splits the
    // frame currently crossing the socket. The frame in progress is the
    // oldest unflushed one: [frame_base, frame_ends.front()).
    size_t limit = connection.out.size();
    bool cut_at_limit = false;
    bool partial_at_limit = false;
    if (chaos_.enabled() && !connection.evicted && !connection.frame_ends.empty()) {
      const int64_t tx = connection.tx_flushed;
      const size_t frame_end = connection.frame_ends.front();
      const size_t frame_len =
          frame_end - static_cast<size_t>(connection.frame_base);
      if (frame_len >= 2 && chaos_.CutFrame(connection.id, tx)) {
        const size_t split = static_cast<size_t>(connection.frame_base) +
                             chaos_.SplitPoint(connection.id, tx, frame_len);
        if (connection.out_offset >= split) {
          ++stats_.chaos_cuts;
          CloseNow(connection, options_.chaos.cut_with_rst);
          return false;
        }
        limit = split;
        cut_at_limit = true;
      } else if (frame_len >= 2 && chaos_.PartialWrite(connection.id, tx) &&
                 connection.last_partial_tx != tx) {
        const size_t split = static_cast<size_t>(connection.frame_base) +
                             chaos_.SplitPoint(connection.id, tx, frame_len);
        if (connection.out_offset < split) {
          limit = split;
          partial_at_limit = true;
        }
      }
    }
    const ssize_t n = SendSome(connection.fd, connection.out.data() + connection.out_offset,
                               limit - connection.out_offset);
    if (n > 0) {
      connection.out_offset += static_cast<size_t>(n);
      connection.last_write_progress_ms = EventLoop::NowMs();
      while (!connection.frame_ends.empty() &&
             connection.frame_ends.front() <= connection.out_offset) {
        connection.frame_base = static_cast<int64_t>(connection.frame_ends.front());
        connection.frame_ends.pop_front();
        ++connection.tx_flushed;
      }
      if (connection.out_offset == limit) {
        if (cut_at_limit) {
          // Mid-frame cut: the split-point prefix went out, then the
          // connection dies (FIN, or RST under cut_with_rst).
          ++stats_.chaos_cuts;
          CloseNow(connection, options_.chaos.cut_with_rst);
          return false;
        }
        if (partial_at_limit) {
          // Partial write: pretend the socket filled at the split point and
          // deliver the rest on the next EPOLLOUT round.
          ++stats_.chaos_partial_writes;
          connection.last_partial_tx = connection.tx_flushed;
          break;
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // Socket buffer full; EPOLLOUT will resume.
    }
    // Dying peer (EPIPE/ECONNRESET) or a hard send error.
    CloseNow(connection);
    return false;
  }
  if (connection.pending_out() == 0) {
    connection.out.clear();
    connection.out_offset = 0;
    connection.frame_ends.clear();
    connection.frame_base = 0;
    if (connection.close_after_flush || draining_) {
      CloseNow(connection);
      return false;
    }
    return true;
  }
  // Still pending: reclaim the flushed prefix once it dominates, so a
  // slowly-but-steadily draining client cannot grow `out` without bound.
  if (connection.out_offset >= kCompactThreshold &&
      connection.out_offset * 2 >= connection.out.size()) {
    const size_t delta = connection.out_offset;
    connection.out.erase(0, delta);
    connection.out_offset = 0;
    for (size_t& end : connection.frame_ends) {
      end -= delta;
    }
    // The in-progress frame's start may predate the new origin: signed.
    connection.frame_base -= static_cast<int64_t>(delta);
  }
  return true;
}

void AdServer::UpdateInterest(Connection& connection) {
  uint32_t wanted = EPOLLRDHUP;
  const bool capped = Capped(connection);
  const bool want_read = !connection.close_after_flush && !connection.evicted &&
                         !connection.chaos_stalled && !capped && !draining_;
  if (want_read) {
    wanted |= EPOLLIN;
  }
  if (connection.pending_out() > 0) {
    wanted |= EPOLLOUT;
  }
  if (wanted != connection.mask) {
    if ((connection.mask & EPOLLIN) != 0 && (wanted & EPOLLIN) == 0 && capped &&
        !connection.close_after_flush && !connection.evicted) {
      ++stats_.backpressure_pauses;
    }
    connection.mask = wanted;
    loop_.Modify(connection.fd, connection.mask);
  }
}

void AdServer::Advance(int fd) {
  while (true) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) {
      return;
    }
    Connection& connection = *it->second;
    ProcessFrames(connection, /*ignore_caps=*/draining_);
    if (!FlushOutput(connection)) {
      return;  // Connection destroyed.
    }
    // If decoding stopped at the caps and the flush made room, go again —
    // without this, frames already buffered in the reader would wait for
    // the next network byte that may never come.
    if (!connection.evicted && !connection.bad_frames && !Capped(connection) &&
        connection.reader.HasFrame()) {
      continue;
    }
    UpdateInterest(connection);
    return;
  }
}

void AdServer::Evict(Connection& connection) {
  // The client has output owed to it but has not drained a byte in
  // write_stall_ms. Drop every frame not yet entered on the wire, keep the
  // one in progress (a torn frame would poison the victim's reader), append
  // one well-formed kOverloaded frame, and close once it flushes — or when
  // the grace timer fires, whichever is first. Memory is bounded from this
  // moment: input is void, output only shrinks.
  ++stats_.stall_evictions;
  connection.evicted = true;
  size_t boundary = connection.out_offset;
  if (static_cast<size_t>(connection.frame_base) != connection.out_offset &&
      !connection.frame_ends.empty()) {
    boundary = connection.frame_ends.front();  // Finish the frame in progress.
  }
  while (!connection.frame_ends.empty() && connection.frame_ends.back() > boundary) {
    connection.frame_ends.pop_back();
  }
  connection.out.resize(boundary);
  connection.out.append(shed_frame_);
  connection.frame_ends.push_back(connection.out.size());
  connection.close_after_flush = true;
  ArmGrace(connection);
  if (FlushOutput(connection)) {
    UpdateInterest(connection);
  }
}

void AdServer::ArmGrace(Connection& connection) {
  // Close the victim one grace period after its drain last made progress: a
  // client that resumed reading keeps its (bounded) stream flowing to the
  // shed frame; one that stays wedged is gone in one period.
  const int fd = connection.fd;
  const uint64_t armed_at = EventLoop::NowMs();
  connection.grace_timer = loop_.AddTimer(
      static_cast<uint64_t>(std::max<int64_t>(options_.write_stall_ms, 1)),
      [this, fd, armed_at] {
        const auto it = connections_.find(fd);
        if (it == connections_.end()) {
          return;
        }
        Connection& victim = *it->second;
        victim.grace_timer = 0;
        if (victim.last_write_progress_ms > armed_at) {
          ArmGrace(victim);
          return;
        }
        CloseNow(victim);
      });
}

void AdServer::CloseNow(Connection& connection, bool rst) {
  if (connection.resume_timer != 0) {
    loop_.CancelTimer(connection.resume_timer);
  }
  if (connection.grace_timer != 0) {
    loop_.CancelTimer(connection.grace_timer);
  }
  if (!connection.evicted && !connection.bad_frames &&
      connection.reader.pending_bytes() > 0) {
    // The peer left a torn request tail behind: it died (or was cut)
    // mid-frame. Never decoded, only counted.
    ++stats_.dirty_disconnects;
  }
  const int fd = connection.fd;
  if (rst) {
    // Abortive close: RST instead of FIN (chaos cut mode).
    const linger hard{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  } else {
    // Discard any unread input before the orderly close. Closing with bytes
    // still in the receive queue makes the kernel send RST instead of FIN,
    // and the RST destroys responses (an evicted client's shed frame, a
    // drain's last answers) still in flight toward the peer.
    char discard[4096];
    while (ReadSome(fd, discard, sizeof(discard)) > 0) {
    }
  }
  loop_.Remove(fd);
  close(fd);
  connections_.erase(fd);  // Invalidates `connection`.
}

void AdServer::RoundHook() {
  if (!draining_ && drain_requested_.load(std::memory_order_acquire)) {
    draining_ = true;
    if (listen_fd_ >= 0) {
      loop_.Remove(listen_fd_);
      close(listen_fd_);
      listen_fd_ = -1;
    }
    // Answer everything already buffered (caps waived — drain is terminal
    // and the buffers are already bounded), flush, and close as flushes
    // complete. Collect fds first: Advance may erase from the map.
    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto& [fd, connection] : connections_) {
      fds.push_back(fd);
    }
    for (const int fd : fds) {
      const auto it = connections_.find(fd);
      if (it == connections_.end()) {
        continue;
      }
      it->second->close_after_flush = true;
      Advance(fd);
    }
  }
  if (draining_ && connections_.empty()) {
    loop_.Stop();
  }
}

}  // namespace pad
