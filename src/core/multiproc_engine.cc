#include "src/core/multiproc_engine.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/common/frame_reader.h"
#include "src/common/ipc.h"
#include "src/common/sockio.h"
#include "src/core/checkpoint.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

// Message types on a coordinator<->worker channel. The payload layouts are
// fixed and strict (ByteReader::Finished is required): these frames cross a
// process boundary, so a malformed one is data loss, not a crash.
enum IpcMsgType : uint8_t {
  kMsgHello = 1,     // worker -> coord: journal open, ready.  [u32 worker]
  kMsgAssign = 2,    // coord -> worker: simulate this market. [u32 market]
  kMsgDone = 3,      // worker -> coord: journaled (fsync'd) and complete.
                     //   [u32 market][u64 pad_digest][f64 busy_s]
  kMsgError = 4,     // worker -> coord: terminal failure.
                     //   [u32 status_code][string message]
  kMsgShutdown = 5,  // coord -> worker: exit cleanly.         []
};

// ---------------------------------------------------------------------------
// SIGCHLD -> self-pipe, so worker death wakes the coordinator's poll loop
// promptly instead of waiting out the poll timeout. The handler does the only
// async-signal-safe thing: write one byte and preserve errno.

std::atomic<int> g_sigchld_pipe_wr{-1};

void SigchldHandler(int) {
  const int saved_errno = errno;
  const int fd = g_sigchld_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
  errno = saved_errno;
}

// ---------------------------------------------------------------------------
// Worker side. Runs in the forked child; must not touch coordinator state.

Status SendWorkerError(int fd, const Status& status) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(status.code()));
  PutString(&payload, status.message());
  return SendIpcFrame(fd, kMsgError, payload);
}

Status SendWorkerDone(int fd, uint32_t market, uint64_t pad_digest, double busy_s) {
  std::string payload;
  PutU32(&payload, market);
  PutU64(&payload, pad_digest);
  PutF64(&payload, busy_s);
  return SendIpcFrame(fd, kMsgDone, payload);
}

// The worker loop: open the journal, announce readiness, then simulate
// assignments until Shutdown. The invariant the whole engine rests on is the
// ordering inside the loop: append -> fsync (inside Append) -> THEN send
// DONE. A SIGKILL between the fsync and the send costs nothing — the
// coordinator's post-mortem journal read finds the market; a SIGKILL before
// the fsync loses only that one market, which is requeued.
int WorkerMain(int fd, int worker, const PadConfig& aligned,
               const std::vector<int64_t>& boundaries, const ShardEngineOptions& engine,
               const CheckpointHeader& header) {
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  StatusOr<ResumedJournal> journal_or = OpenOrResumeJournal(
      WorkerJournalPath(engine.checkpoint_path, worker), header, engine.checkpoint_fsync);
  if (!journal_or.ok()) {
    (void)SendWorkerError(fd, journal_or.status());
    return ExitCodeFor(journal_or.status());
  }
  ResumedJournal journal = *std::move(journal_or);

  std::string hello;
  PutU32(&hello, static_cast<uint32_t>(worker));
  if (!SendIpcFrame(fd, kMsgHello, hello).ok()) {
    return ExitCodeFor(Status::Unavailable("coordinator closed"));
  }
  // The coordinator consolidates and unlinks worker journals before forking,
  // so this file should have been fresh; if records survived anyway (e.g. a
  // consolidation raced a crash), report them as zero-cost completions so
  // they are never re-simulated.
  for (const MarketRecord& record : journal.records) {
    if (!SendWorkerDone(fd, static_cast<uint32_t>(record.market), record.pad_digest, 0.0).ok()) {
      return ExitCodeFor(Status::Unavailable("coordinator closed"));
    }
  }

  PopulationStream stream(aligned.population);
  while (true) {
    StatusOr<IpcMessage> message = RecvIpcFrame(fd);
    if (!message.ok()) {
      // Coordinator died or the channel broke: exit; the journal holds
      // everything completed so far.
      return ExitCodeFor(message.status());
    }
    if (message->type == kMsgShutdown) {
      return 0;
    }
    if (message->type != kMsgAssign) {
      const Status status =
          Status::DataLoss("worker received unexpected message type " +
                           std::to_string(static_cast<int>(message->type)));
      (void)SendWorkerError(fd, status);
      return ExitCodeFor(status);
    }
    ByteReader parser(message->payload);
    const uint32_t market = parser.GetU32();
    if (!parser.Finished() || market >= static_cast<uint32_t>(num_markets)) {
      const Status status = Status::DataLoss("malformed ASSIGN frame");
      (void)SendWorkerError(fd, status);
      return ExitCodeFor(status);
    }

    const double busy_start = ThreadCpuSeconds();
    MarketRecord record = SimulateMarket(aligned, boundaries, static_cast<int>(market), stream,
                                         engine.run_baseline, engine.event_digests);
    const double busy_s = ThreadCpuSeconds() - busy_start;
    if (const Status status = journal.writer->Append(record); !status.ok()) {
      (void)SendWorkerError(fd, status);
      return ExitCodeFor(status);
    }
    if (!SendWorkerDone(fd, market, record.pad_digest, busy_s).ok()) {
      return ExitCodeFor(Status::Unavailable("coordinator closed"));
    }
  }
}

// ---------------------------------------------------------------------------
// Journal consolidation: fold every `<checkpoint>.w<digits>` file in the
// checkpoint's directory into the result slots and the main journal, then
// remove the worker files. Idempotent by construction — a record already in
// a slot is verified for digest equality and skipped, so running it twice
// (or crashing anywhere inside it and running it again next time) converges
// to the same main journal. Called once before forking (to absorb leftovers
// from a previous interrupted run, at whatever process count it used) and
// once after the run.

StatusOr<std::vector<std::string>> ListWorkerJournals(const std::string& checkpoint_path) {
  const size_t slash = checkpoint_path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : checkpoint_path.substr(0, slash);
  const std::string base =
      slash == std::string::npos ? checkpoint_path : checkpoint_path.substr(slash + 1);
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::Unavailable("cannot list checkpoint directory '" + dir +
                               "': " + std::strerror(errno));
  }
  const std::string prefix = base + ".w";
  std::vector<std::string> files;
  while (dirent* entry = ::readdir(handle)) {
    const std::string name(entry->d_name);
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    bool digits = true;
    for (size_t i = prefix.size(); i < name.size(); ++i) {
      digits = digits && std::isdigit(static_cast<unsigned char>(name[i])) != 0;
    }
    if (!digits) {
      continue;
    }
    files.push_back(dir + "/" + name);
  }
  ::closedir(handle);
  std::sort(files.begin(), files.end());
  return files;
}

// The records of one worker journal, checked against the run's header and
// partition. A missing file (never created, or raced away) or one without a
// header (its worker died before writing one) holds nothing; any other
// unreadable file at a worker-journal name is foreign, and refused.
StatusOr<std::vector<MarketRecord>> ReadWorkerJournal(const std::string& path,
                                                      const CheckpointHeader& expected) {
  StatusOr<CheckpointContents> read = ReadCheckpoint(path);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return std::vector<MarketRecord>{};
    }
    return read.status();
  }
  if (!read->has_header) {
    return std::vector<MarketRecord>{};
  }
  PAD_RETURN_IF_ERROR(CheckJournalHeader(read->header, expected, path));
  for (const MarketRecord& record : read->markets) {
    if (record.market < 0 || record.market >= expected.num_markets) {
      return Status::DataLoss("worker journal '" + path + "' holds market " +
                              std::to_string(record.market) + " outside the partition");
    }
  }
  return std::move(read->markets);
}

Status ConsolidateWorkerJournals(const std::string& checkpoint_path,
                                 const CheckpointHeader& expected, CheckpointWriter* writer,
                                 std::vector<MarketRecord>* results, int* merged_markets) {
  PAD_ASSIGN_OR_RETURN(const std::vector<std::string> files,
                       ListWorkerJournals(checkpoint_path));
  std::vector<MarketRecord> incoming;
  for (const std::string& path : files) {
    PAD_ASSIGN_OR_RETURN(std::vector<MarketRecord> records, ReadWorkerJournal(path, expected));
    std::move(records.begin(), records.end(), std::back_inserter(incoming));
  }
  // Merge in market-index order so the main journal's bytes are a canonical
  // function of WHICH markets completed, not of worker count or timing.
  std::sort(incoming.begin(), incoming.end(),
            [](const MarketRecord& a, const MarketRecord& b) { return a.market < b.market; });
  for (MarketRecord& record : incoming) {
    MarketRecord& slot = (*results)[static_cast<size_t>(record.market)];
    if (slot.market == record.market) {
      // Seen before (main journal, another worker file, or a crash between a
      // previous merge's append and its unlink). Exactly-once is enforced
      // right here: a duplicate must be byte-equivalent, and the metric
      // digests prove it.
      if (slot.pad_digest != record.pad_digest ||
          slot.baseline_digest != record.baseline_digest ||
          slot.event_digest != record.event_digest) {
        return Status::DataLoss("market " + std::to_string(record.market) +
                                " was completed twice with diverging digests; journals are "
                                "inconsistent");
      }
      continue;
    }
    if (writer != nullptr) {
      PAD_RETURN_IF_ERROR(writer->Append(record));
    }
    slot = std::move(record);
    ++*merged_markets;
  }
  // Records are durable in the main journal; now the worker files can go.
  // Crash ordering is safe in every window: before an unlink, the next
  // consolidation dedupes; after, the main journal alone carries the record.
  for (const std::string& path : files) {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Unavailable("cannot remove merged worker journal '" + path +
                                 "': " + std::strerror(errno));
    }
  }
  if (!files.empty()) {
    PAD_RETURN_IF_ERROR(FsyncParentDir(checkpoint_path));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Coordinator side.

struct WorkerSlot {
  int index = -1;
  pid_t pid = -1;
  int fd = -1;  // Coordinator end, nonblocking. -1 once closed.
  FrameReader reader{kMaxIpcPayload};
  bool ready = false;          // Hello received.
  bool alive = true;           // Not yet reaped.
  bool channel_open = true;    // EOF/transport error not yet seen.
  bool shutdown_sent = false;
  bool stall_reported = false;
  int assigned = -1;           // Outstanding market, -1 when idle.
  double assigned_at_s = 0.0;  // Engine-relative assignment time.
};

}  // namespace

std::string WorkerJournalPath(const std::string& checkpoint_path, int worker) {
  return checkpoint_path + ".w" + std::to_string(worker);
}

Status RunMarketsInProcesses(const PadConfig& aligned, const std::vector<int64_t>& boundaries,
                             const ShardEngineOptions& options, CheckpointWriter* journal,
                             std::vector<MarketRecord>& results, ShardedComparison* run) {
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  const CheckpointHeader header =
      JournalHeaderFor(aligned, num_markets, options.run_baseline, options.event_digests);
  const auto market_size = [&](int m) {
    return boundaries[static_cast<size_t>(m) + 1] - boundaries[static_cast<size_t>(m)];
  };

  // Absorb leftover worker journals from any previous interrupted run (any
  // process count) so workers start from clean files and the slots reflect
  // everything already durable.
  int merged_at_start = 0;
  PAD_RETURN_IF_ERROR(ConsolidateWorkerJournals(options.checkpoint_path, header, journal,
                                                &results, &merged_at_start));
  run->resumed_markets += merged_at_start;

  // Run-time completion bookkeeping. `completed` and `done_digest` are fed
  // by DONE messages and post-mortem journal reads; the record payloads
  // themselves only flow through journals (the pipe never carries metrics).
  std::vector<char> completed(static_cast<size_t>(num_markets), 0);
  std::vector<uint64_t> done_digest(static_cast<size_t>(num_markets), 0);
  std::set<int> pending;  // Markets not completed and not outstanding; sorted
                          // so assignment walks the population forward.
  for (int m = 0; m < num_markets; ++m) {
    if (results[static_cast<size_t>(m)].market == m) {
      completed[static_cast<size_t>(m)] = 1;
      done_digest[static_cast<size_t>(m)] = results[static_cast<size_t>(m)].pad_digest;
    } else {
      pending.insert(m);
    }
  }

  // SIGCHLD self-pipe, installed before the first fork.
  int chld_pipe[2] = {-1, -1};
  if (::pipe2(chld_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
    return Status::Unavailable(std::string("pipe2: ") + std::strerror(errno));
  }
  g_sigchld_pipe_wr.store(chld_pipe[1]);
  struct sigaction chld_action {};
  struct sigaction old_chld_action {};
  chld_action.sa_handler = SigchldHandler;
  sigemptyset(&chld_action.sa_mask);
  chld_action.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  ::sigaction(SIGCHLD, &chld_action, &old_chld_action);
  const auto restore_sigchld = [&] {
    ::sigaction(SIGCHLD, &old_chld_action, nullptr);
    g_sigchld_pipe_wr.store(-1);
    ::close(chld_pipe[0]);
    ::close(chld_pipe[1]);
  };

  // Fork the pool — before this process creates ANY threads. Extra workers
  // beyond the market count would only fork and immediately shut down, so
  // cap like the lane executor caps lanes.
  const int num_workers = std::min(options.processes, num_markets);
  std::vector<WorkerSlot> workers(static_cast<size_t>(num_workers));
  std::vector<int> coordinator_fds;  // For children to close.
  const auto kill_forked = [&] {
    for (WorkerSlot& w : workers) {
      if (w.pid > 0 && w.alive) {
        ::kill(w.pid, SIGKILL);
        int ignored = 0;
        ::waitpid(w.pid, &ignored, 0);
      }
      if (w.fd >= 0) {
        ::close(w.fd);
      }
    }
  };
  for (int i = 0; i < num_workers; ++i) {
    StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
    if (!pair.ok()) {
      kill_forked();
      restore_sigchld();
      return pair.status();
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pair->coordinator_fd);
      ::close(pair->worker_fd);
      kill_forked();
      restore_sigchld();
      return Status::Unavailable(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child: restore the parent's SIGCHLD disposition, drop every
      // coordinator-side fd (including this pair's), and run the worker
      // loop. _exit, not exit: a forked child must not run the parent's
      // atexit/static destructors.
      ::sigaction(SIGCHLD, &old_chld_action, nullptr);
      ::close(chld_pipe[0]);
      ::close(chld_pipe[1]);
      for (const int fd : coordinator_fds) {
        ::close(fd);
      }
      ::close(pair->coordinator_fd);
      ::_exit(WorkerMain(pair->worker_fd, i, aligned, boundaries, options, header));
    }
    ::close(pair->worker_fd);
    if (const Status status = SetNonBlocking(pair->coordinator_fd); !status.ok()) {
      ::close(pair->coordinator_fd);
      kill_forked();
      restore_sigchld();
      return status;
    }
    coordinator_fds.push_back(pair->coordinator_fd);
    WorkerSlot& slot = workers[static_cast<size_t>(i)];
    slot.index = i;
    slot.pid = pid;
    slot.fd = pair->coordinator_fd;
    if (options.on_worker_spawn) {
      options.on_worker_spawn(i, pid);
    }
  }

  // ------------------------------------------------------------------ loop
  const auto engine_start = std::chrono::steady_clock::now();
  Status run_error;
  bool interrupted = false;
  bool stop = false;
  int workers_died = 0;
  int64_t markets_reassigned = 0;
  int64_t resident = 0;
  int64_t peak_resident = 0;

  const auto latch = [&](const Status& status) {
    if (run_error.ok() && !status.ok()) {
      run_error = status;
      stop = true;
    }
  };

  const auto handle_message = [&](WorkerSlot& w, const IpcMessage& message) -> Status {
    switch (message.type) {
      case kMsgHello: {
        w.ready = true;
        return Status::Ok();
      }
      case kMsgDone: {
        ByteReader parser(message.payload);
        const uint32_t market = parser.GetU32();
        const uint64_t digest = parser.GetU64();
        const double busy_s = parser.GetF64();
        if (!parser.Finished() || market >= static_cast<uint32_t>(num_markets)) {
          return Status::DataLoss("malformed DONE frame from worker " +
                                  std::to_string(w.index));
        }
        const size_t m = static_cast<size_t>(market);
        if (completed[m] != 0) {
          // Exactly-once check on the hint path: a duplicate DONE (or a DONE
          // for a market recovered from a journal) must carry the same digest.
          if (done_digest[m] != digest) {
            return Status::DataLoss("market " + std::to_string(market) +
                                    " reported complete twice with diverging digests");
          }
        } else {
          completed[m] = 1;
          done_digest[m] = digest;
          run->market_workers[m] = w.index;
          run->market_busy_s[m] = busy_s;
        }
        if (w.assigned == static_cast<int>(market)) {
          resident -= market_size(w.assigned);
          w.assigned = -1;
          w.stall_reported = false;
        }
        return Status::Ok();
      }
      case kMsgError: {
        ByteReader parser(message.payload);
        const uint32_t code = parser.GetU32();
        const std::string text = parser.GetString();
        if (!parser.Finished() || code > static_cast<uint32_t>(StatusCode::kInternal)) {
          return Status::DataLoss("malformed ERROR frame from worker " +
                                  std::to_string(w.index));
        }
        return Status(static_cast<StatusCode>(code),
                      "worker " + std::to_string(w.index) + ": " + text);
      }
      default:
        return Status::DataLoss("unexpected message type " +
                                std::to_string(static_cast<int>(message.type)) +
                                " from worker " + std::to_string(w.index));
    }
  };

  // Pull whatever the worker has sent — including bytes buffered in the
  // socket after the worker died; a completed market's DONE must not be
  // dropped just because its sender is already a zombie.
  const auto drain_channel = [&](WorkerSlot& w) -> Status {
    if (w.fd < 0 || !w.channel_open) {
      return Status::Ok();
    }
    char chunk[4096];
    while (true) {
      const ssize_t n = ReadSome(w.fd, chunk, sizeof(chunk));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;  // Nothing more to read right now.
      }
      if (n <= 0) {
        w.channel_open = false;  // EOF/transport: fall through and drain the buffer.
        break;
      }
      // Fails only once the reader is poisoned: framing corruption is fatal.
      PAD_RETURN_IF_ERROR(w.reader.Append(std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(chunk), static_cast<size_t>(n))));
      if (static_cast<size_t>(n) < sizeof(chunk)) {
        break;  // Drained what was available.
      }
    }
    while (true) {
      std::string body;
      bool have = false;
      PAD_RETURN_IF_ERROR(w.reader.Next(&body, &have));
      if (!have) {
        return Status::Ok();
      }
      PAD_ASSIGN_OR_RETURN(const IpcMessage message, SplitIpcFrame(body));
      PAD_RETURN_IF_ERROR(handle_message(w, message));
    }
  };

  // Post-mortem for a reaped worker: the journal — not the pipe — decides
  // what it finished. Markets in the journal are complete even if their DONE
  // never arrived; an outstanding assignment absent from the journal is the
  // at-most-one casualty and goes back in the queue.
  const auto handle_death = [&](WorkerSlot& w, int wait_status) -> Status {
    w.alive = false;
    w.channel_open = false;
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    const bool clean = w.shutdown_sent && w.assigned < 0 && WIFEXITED(wait_status) &&
                       WEXITSTATUS(wait_status) == 0;
    if (clean) {
      return Status::Ok();
    }
    ++workers_died;
    PAD_ASSIGN_OR_RETURN(
        const std::vector<MarketRecord> records,
        ReadWorkerJournal(WorkerJournalPath(options.checkpoint_path, w.index), header));
    for (const MarketRecord& record : records) {
      const size_t m = static_cast<size_t>(record.market);
      if (completed[m] == 0) {
        completed[m] = 1;
        done_digest[m] = record.pad_digest;
        pending.erase(record.market);
      } else if (done_digest[m] != record.pad_digest) {
        return Status::DataLoss("market " + std::to_string(record.market) +
                                " completed twice with diverging digests");
      }
    }
    if (w.assigned >= 0) {
      const int m = w.assigned;
      resident -= market_size(m);
      w.assigned = -1;
      if (completed[static_cast<size_t>(m)] == 0) {
        pending.insert(m);
        ++markets_reassigned;
      }
    }
    return Status::Ok();
  };

  const auto try_reap = [&](WorkerSlot& w) -> Status {
    if (!w.alive) {
      return Status::Ok();
    }
    int wait_status = 0;
    const pid_t reaped = ::waitpid(w.pid, &wait_status, WNOHANG);
    if (reaped != w.pid) {
      return Status::Ok();
    }
    // Collect anything still buffered in the socket before judging the
    // journal, so late DONEs keep their busy/worker attribution.
    latch(drain_channel(w));
    return handle_death(w, wait_status);
  };

  const auto assign_work = [&] {
    for (WorkerSlot& w : workers) {
      if (stop || pending.empty()) {
        return;
      }
      if (!w.alive || !w.ready || !w.channel_open || w.shutdown_sent || w.assigned >= 0) {
        continue;
      }
      // First fit in index order: the budget admits the largest market by
      // validation, so whenever the pool is idle the lowest pending market
      // fits and the queue always drains.
      int chosen = -1;
      for (const int m : pending) {
        if (options.max_resident_users <= 0 ||
            resident + market_size(m) <= options.max_resident_users) {
          chosen = m;
          break;
        }
      }
      if (chosen < 0) {
        return;  // Nothing fits until an outstanding market completes.
      }
      std::string payload;
      PutU32(&payload, static_cast<uint32_t>(chosen));
      if (!SendIpcFrame(w.fd, kMsgAssign, payload).ok()) {
        w.channel_open = false;  // Dying worker; the reap path requeues.
        continue;
      }
      pending.erase(chosen);
      w.assigned = chosen;
      w.assigned_at_s = SecondsSince(engine_start);
      w.stall_reported = false;
      resident += market_size(chosen);
      peak_resident = std::max(peak_resident, resident);
    }
  };

  while (true) {
    if (!stop && options.stop_requested != nullptr && options.stop_requested->load()) {
      stop = true;
      interrupted = true;
    }
    assign_work();

    // Shutdown: an idle worker with no work left (or any worker once
    // stopping — it reads the frame only after finishing its current
    // market) gets told to exit.
    if (stop || pending.empty()) {
      for (WorkerSlot& w : workers) {
        if (w.alive && w.channel_open && !w.shutdown_sent && (stop || w.assigned < 0)) {
          (void)SendIpcFrame(w.fd, kMsgShutdown, "");
          w.shutdown_sent = true;
        }
      }
    }

    int alive = 0;
    for (const WorkerSlot& w : workers) {
      alive += w.alive ? 1 : 0;
    }
    if (alive == 0) {
      break;
    }

    std::vector<pollfd> fds;
    std::vector<WorkerSlot*> fd_owner;
    for (WorkerSlot& w : workers) {
      if (w.alive && w.fd >= 0 && w.channel_open) {
        fds.push_back(pollfd{w.fd, POLLIN, 0});
        fd_owner.push_back(&w);
      }
    }
    fds.push_back(pollfd{chld_pipe[0], POLLIN, 0});
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if (ready < 0 && errno != EINTR) {
      latch(Status::Unavailable(std::string("poll: ") + std::strerror(errno)));
    }
    for (size_t i = 0; i + 1 < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        latch(drain_channel(*fd_owner[i]));
      }
    }
    if ((fds.back().revents & POLLIN) != 0) {
      char sink[64];
      while (::read(chld_pipe[0], sink, sizeof(sink)) > 0) {
      }
    }
    for (WorkerSlot& w : workers) {
      latch(try_reap(w));
    }

    // Stall handling: report once per assignment (observability), and past
    // stall_kill_s presume the worker wedged — SIGKILL it, reap it, and let
    // the death path requeue from its journal like any other casualty.
    const double now_s = SecondsSince(engine_start);
    for (WorkerSlot& w : workers) {
      if (!w.alive || w.assigned < 0) {
        continue;
      }
      const double elapsed_s = now_s - w.assigned_at_s;
      if (options.market_watchdog_s > 0.0 && options.on_stall && !w.stall_reported &&
          elapsed_s > options.market_watchdog_s) {
        w.stall_reported = true;
        options.on_stall(w.index, w.assigned, elapsed_s);
      }
      if (options.stall_kill_s > 0.0 && elapsed_s > options.stall_kill_s) {
        ::kill(w.pid, SIGKILL);
        int wait_status = 0;
        ::waitpid(w.pid, &wait_status, 0);
        latch(drain_channel(w));
        latch(handle_death(w, wait_status));
      }
    }
  }

  restore_sigchld();

  // Every worker is reaped; the journals are quiescent. Merge them into the
  // main journal NOW, before deciding how to exit — even an aborted run must
  // leave its completed markets durable in the main journal so the rerun
  // (at any process count) resumes instead of restarting.
  int merged_at_end = 0;
  latch(ConsolidateWorkerJournals(options.checkpoint_path, header, journal, &results,
                                  &merged_at_end));
  if (!run_error.ok()) {
    return run_error;
  }
  if (!pending.empty() && !interrupted) {
    return Status::Aborted("all " + std::to_string(num_workers) + " workers died with " +
                           std::to_string(pending.size()) +
                           " markets remaining; completed markets are journaled — rerun the "
                           "same command to resume");
  }

  // Exactly-once cross-check: everything reported complete must be present
  // in the merged slots with the digest the pipe (or post-mortem) reported.
  for (int m = 0; m < num_markets; ++m) {
    const size_t slot = static_cast<size_t>(m);
    if (completed[slot] == 0) {
      PAD_CHECK_MSG(interrupted, "market neither completed nor pending in a finished run");
      continue;
    }
    if (results[slot].market != m) {
      return Status::DataLoss("market " + std::to_string(m) +
                              " was reported complete but no journal holds it");
    }
    if (results[slot].pad_digest != done_digest[slot]) {
      return Status::DataLoss("market " + std::to_string(m) +
                              " journal digest disagrees with its completion notice");
    }
  }

  run->interrupted = interrupted;
  run->worker_processes = num_workers;
  run->workers_died = workers_died;
  run->markets_reassigned = markets_reassigned;
  std::set<int> distinct_workers;
  for (const int w : run->market_workers) {
    if (w >= 0) {
      distinct_workers.insert(w);
    }
  }
  run->workers_used = static_cast<int>(distinct_workers.size());
  run->peak_resident_users = peak_resident;
  return Status::Ok();
}

}  // namespace pad
