#include "src/core/shard_engine.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/apps/app_profile.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/task_scheduler.h"
#include "src/core/checkpoint.h"
#include "src/core/event_log.h"
#include "src/core/multiproc_engine.h"
#include "src/core/pad_simulation.h"
#include "src/core/sweep.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

// Counting admission gate over resident users. A lane acquires its next
// market's population before generating it and releases after the market's
// runs complete, so the sum of in-flight market sizes never exceeds the
// budget. Capacity covers the largest market by validation, so the first
// acquire against an idle gate always succeeds — no deadlock.
class ResidencyGate {
 public:
  explicit ResidencyGate(int64_t capacity) : capacity_(capacity) {}

  void Acquire(int64_t users) {
    std::unique_lock<std::mutex> lock(mutex_);
    freed_.wait(lock, [&] { return capacity_ <= 0 || in_use_ + users <= capacity_; });
    in_use_ += users;
    peak_ = std::max(peak_, in_use_);
  }

  void Release(int64_t users) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_use_ -= users;
    }
    freed_.notify_all();
  }

  int64_t peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  const int64_t capacity_;  // <= 0: unlimited (still tracks the peak).
  mutable std::mutex mutex_;
  std::condition_variable freed_;
  int64_t in_use_ = 0;
  int64_t peak_ = 0;
};

// The per-market slice of the simulation: the market's own client count and
// a campaign stream scaled to its population share, with seeds decorrelated
// per market. A single market keeps the config untouched so the engine is
// bit-identical to the monolithic path.
PadConfig MarketConfig(const PadConfig& aligned, int market, int64_t lo, int64_t hi,
                       int64_t total_users, int num_markets) {
  PadConfig config = aligned;
  config.population.num_users = static_cast<int>(hi - lo);
  if (num_markets > 1) {
    uint64_t state =
        aligned.campaigns.seed + 0xadc0de5ull * static_cast<uint64_t>(market + 1);
    config.campaigns.seed = SplitMix64(state);
    config.campaigns.arrivals_per_day = aligned.campaigns.arrivals_per_day *
                                        static_cast<double>(hi - lo) /
                                        static_cast<double>(total_users);
  }
  return config;
}

// Per-lane progress slot the watchdog thread polls: which market the lane is
// inside and since when (milliseconds from engine start; -1 = idle).
struct LaneWatch {
  std::atomic<int> market{-1};
  std::atomic<int64_t> start_ms{0};
};

// The in-process executor: markets are tasks on the work-stealing scheduler.
// Each worker owns the contiguous range [lane*M/W, (lane+1)*M/W) as its
// deque and drains it front to back, so its own PopulationStream walks users
// strictly forward (SeekUsers degenerates to a no-op between adjacent
// markets and the per-worker replay cost stays O(num_users) on the no-steal
// path). A stolen market — or a market restored from the journal mid-range —
// just reseeks: forward by skipping, backward by replaying the parameter
// stream from user 0, both bit-identical to sequential generation. Under
// schedule=static no stealing happens and every worker runs exactly its
// initial range, the A/B baseline.
Status RunMarketsOnLanes(const PadConfig& aligned, const std::vector<int64_t>& boundaries,
                         const ShardEngineOptions& options, CheckpointWriter* journal,
                         std::vector<MarketRecord>& results, ShardedComparison* run) {
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  const int lanes = ResolveWorkers(options.threads, num_markets);

  // Journal appends are serialized; the first I/O failure is latched and
  // fails the whole run (a checkpoint that silently stopped recording would
  // betray the next resume).
  std::mutex journal_mutex;
  Status journal_status;  // Guarded by journal_mutex.

  ResidencyGate gate(options.max_resident_users);

  // Watchdog: a monitor thread polling per-lane progress slots. Pure
  // observability — a stalled market keeps running (killing it would break
  // determinism); it is reported once per (lane, market).
  const auto engine_start = std::chrono::steady_clock::now();
  const auto now_ms = [engine_start] {
    return static_cast<int64_t>(SecondsSince(engine_start) * 1000.0);
  };
  std::vector<LaneWatch> watch(static_cast<size_t>(lanes));
  std::atomic<bool> watch_done{false};
  std::thread watchdog;
  if (options.market_watchdog_s > 0.0 && options.on_stall) {
    watchdog = std::thread([&] {
      std::vector<int> reported(static_cast<size_t>(lanes), -1);
      const auto poll = std::chrono::milliseconds(
          std::max<int64_t>(10, static_cast<int64_t>(options.market_watchdog_s * 250.0)));
      while (!watch_done.load()) {
        for (size_t lane = 0; lane < watch.size(); ++lane) {
          const int market = watch[lane].market.load();
          if (market < 0 || reported[lane] == market) {
            continue;
          }
          const double elapsed_s =
              static_cast<double>(now_ms() - watch[lane].start_ms.load()) / 1000.0;
          if (elapsed_s > options.market_watchdog_s) {
            reported[lane] = market;
            options.on_stall(static_cast<int>(lane), market, elapsed_s);
          }
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  std::vector<std::unique_ptr<PopulationStream>> streams;
  streams.reserve(static_cast<size_t>(lanes));
  for (int lane = 0; lane < lanes; ++lane) {
    streams.push_back(std::make_unique<PopulationStream>(aligned.population));
  }
  // Each market's slots (result, worker, busy time) have one writer, its
  // lane, and are read after the scheduler joins.
  const auto run_market = [&](int lane, int64_t task) {
    const int m = static_cast<int>(task);
    if (results[static_cast<size_t>(m)].market == m) {
      return;  // Restored from the journal; nothing to simulate.
    }
    const int64_t lo = boundaries[static_cast<size_t>(m)];
    const int64_t hi = boundaries[static_cast<size_t>(m) + 1];
    gate.Acquire(hi - lo);
    watch[static_cast<size_t>(lane)].start_ms.store(now_ms());
    watch[static_cast<size_t>(lane)].market.store(m);
    const double busy_start = ThreadCpuSeconds();
    results[static_cast<size_t>(m)] =
        SimulateMarket(aligned, boundaries, m, *streams[static_cast<size_t>(lane)],
                       options.run_baseline, options.event_digests);
    run->market_busy_s[static_cast<size_t>(m)] = ThreadCpuSeconds() - busy_start;
    run->market_workers[static_cast<size_t>(m)] = lane;
    watch[static_cast<size_t>(lane)].market.store(-1);
    gate.Release(hi - lo);

    if (journal != nullptr) {
      std::lock_guard<std::mutex> lock(journal_mutex);
      if (journal_status.ok()) {
        journal_status = journal->Append(results[static_cast<size_t>(m)]);
      }
    }
  };

  TaskSchedulerOptions scheduler_options;
  scheduler_options.stealing = options.schedule == ScheduleMode::kStealing;
  scheduler_options.steal_seed = options.steal_seed;
  scheduler_options.stop_requested = options.stop_requested;
  const TaskSchedulerStats scheduler_stats =
      RunTaskQueues(PartitionTasks(num_markets, lanes), run_market, scheduler_options);

  watch_done.store(true);
  if (watchdog.joinable()) {
    watchdog.join();
  }
  run->interrupted = scheduler_stats.interrupted;
  run->workers_used = scheduler_stats.workers;
  run->tasks_stolen = scheduler_stats.stolen;
  run->peak_resident_users = gate.peak();
  return journal_status;
}

}  // namespace

std::vector<int64_t> MarketBoundaries(int64_t num_users, int64_t market_users) {
  PAD_CHECK(num_users > 0 && market_users >= 0);
  const int64_t block = market_users > 0 ? std::min(market_users, num_users) : num_users;
  std::vector<int64_t> boundaries;
  for (int64_t lo = 0; lo < num_users; lo += block) {
    boundaries.push_back(lo);
  }
  boundaries.push_back(num_users);
  return boundaries;
}

CheckpointHeader JournalHeaderFor(const PadConfig& aligned, int num_markets, bool run_baseline,
                                  bool event_digests) {
  CheckpointHeader header;
  header.config_fingerprint = ConfigFingerprint(aligned);
  header.population_seed = aligned.population.seed;
  header.total_users = aligned.population.num_users;
  header.num_markets = num_markets;
  header.run_baseline = run_baseline;
  header.event_digests = event_digests;
  return header;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

MarketRecord SimulateMarket(const PadConfig& aligned, const std::vector<int64_t>& boundaries,
                            int market, PopulationStream& stream, bool run_baseline,
                            bool event_digests) {
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  const int64_t num_users = boundaries.back();
  const int64_t lo = boundaries[static_cast<size_t>(market)];
  const int64_t hi = boundaries[static_cast<size_t>(market) + 1];
  MarketRecord out;
  out.market = market;

  const auto generate_start = std::chrono::steady_clock::now();
  stream.SeekUsers(lo);
  const PadConfig market_config = MarketConfig(aligned, market, lo, hi, num_users, num_markets);
  SimInputs inputs{stream.NextBlock(hi - lo), AppCatalog::TopFifteen(),
                   GenerateCampaignStream(market_config.campaigns)};
  for (const UserTrace& user : inputs.population.users) {
    out.sessions += static_cast<int64_t>(user.sessions.size());
  }
  out.generate_seconds = SecondsSince(generate_start);

  const auto simulate_start = std::chrono::steady_clock::now();
  // One validation + constant hoist per market; the runners share it.
  const SimContext market_context = MakeSimContext(market_config);
  if (run_baseline) {
    out.baseline = RunBaseline(market_context, inputs);
    out.baseline_digest = MetricsDigest(out.baseline);
  }
  // Only the market's event digest is kept: a digest-only log folds each
  // event as it is recorded and buffers none of them.
  EventLog log = EventLog::DigestOnly();
  out.pad = RunPad(market_context, inputs, event_digests ? &log : nullptr);
  out.pad_digest = MetricsDigest(out.pad);
  if (event_digests) {
    out.event_digest = log.Digest();
  }
  out.simulate_seconds = SecondsSince(simulate_start);
  // The market's traces are freed on return: `inputs` goes out of scope here.
  return out;
}

void FoldMarketRecords(std::vector<MarketRecord>& records, bool run_baseline,
                       bool event_digests, ShardedComparison* merged) {
  bool first_market = true;
  for (size_t m = 0; m < records.size(); ++m) {
    MarketRecord& result = records[m];
    if (result.market != static_cast<int32_t>(m)) {
      continue;  // Interrupted before this market finished.
    }
    if (first_market) {
      merged->totals.baseline = std::move(result.baseline);
      merged->totals.pad = std::move(result.pad);
      first_market = false;
    } else {
      merged->totals.baseline.Merge(result.baseline);
      merged->totals.pad.Merge(result.pad);
    }
    merged->total_sessions += result.sessions;
    merged->generate_seconds += result.generate_seconds;
    merged->simulate_seconds += result.simulate_seconds;
    merged->market_pad_digests.push_back(result.pad_digest);
    if (run_baseline) {
      merged->market_baseline_digests.push_back(result.baseline_digest);
    }
    if (event_digests) {
      merged->market_event_digests.push_back(result.event_digest);
    }
  }
  merged->combined_pad_digest = DigestCombine(merged->market_pad_digests);
  if (run_baseline) {
    merged->combined_baseline_digest = DigestCombine(merged->market_baseline_digests);
  }
  if (event_digests) {
    merged->combined_event_digest = DigestCombine(merged->market_event_digests);
  }
}

std::string ValidateShardOptions(const PadConfig& config, const ShardEngineOptions& options) {
  if (const std::string error = ValidateConfig(config); !error.empty()) {
    return error;
  }
  if (options.threads < 0) {
    return "threads must be non-negative (0 = hardware)";
  }
  if (options.max_resident_users < 0) {
    return "max_resident_users must be non-negative (0 = unlimited)";
  }
  if (options.max_resident_users > 0) {
    // Every market but a shorter last one has the first one's size.
    const std::vector<int64_t> boundaries =
        MarketBoundaries(config.population.num_users, config.market_users);
    if (options.max_resident_users < boundaries[1] - boundaries[0]) {
      return "max_resident_users is smaller than the largest market; raise the budget "
             "or shrink market_users";
    }
  }
  if (options.market_watchdog_s < 0.0) {
    return "market_watchdog_s must be non-negative (0 = disabled)";
  }
  if (options.processes < 0) {
    return "processes must be non-negative (0 = in-process lanes)";
  }
  if (options.processes > 0 && options.checkpoint_path.empty()) {
    return "multi-process execution requires checkpointing (worker journals are the result "
           "transport and the crash-safety guarantee); set a checkpoint path";
  }
  if (options.stall_kill_s < 0.0) {
    return "stall_kill_s must be non-negative (0 = disabled)";
  }
  return "";
}

StatusOr<ShardedComparison> RunShardedResumable(const PadConfig& config,
                                                const ShardEngineOptions& options) {
  if (const std::string error = ValidateShardOptions(config, options); !error.empty()) {
    return Status::InvalidArgument(error);
  }

  const PadConfig aligned = AlignInputsConfig(config);
  const std::vector<int64_t> boundaries =
      MarketBoundaries(aligned.population.num_users, aligned.market_users);
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  ShardedComparison merged;
  merged.num_markets = num_markets;
  merged.total_users = aligned.population.num_users;
  merged.market_workers.assign(static_cast<size_t>(num_markets), -1);
  merged.market_busy_s.assign(static_cast<size_t>(num_markets), 0.0);

  // Per-market result slots: restored from the journal or filled by an
  // executor. Slot m holds a finished market iff its .market == m.
  std::vector<MarketRecord> results(static_cast<size_t>(num_markets));
  std::unique_ptr<CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    const CheckpointHeader header =
        JournalHeaderFor(aligned, num_markets, options.run_baseline, options.event_digests);
    PAD_ASSIGN_OR_RETURN(ResumedJournal journal,
                         OpenOrResumeJournal(options.checkpoint_path, header,
                                             options.checkpoint_fsync));
    writer = std::move(journal.writer);
    for (MarketRecord& record : journal.records) {
      results[static_cast<size_t>(record.market)] = std::move(record);
      ++merged.resumed_markets;
    }
  }

  // No thread exists yet on this path, so the coordinator may fork.
  PAD_RETURN_IF_ERROR(
      options.processes > 0
          ? RunMarketsInProcesses(aligned, boundaries, options, writer.get(), results, &merged)
          : RunMarketsOnLanes(aligned, boundaries, options, writer.get(), results, &merged));

  // Fold in market-index order — never completion order — so the totals and
  // every combined digest are independent of the executor, its scheduling,
  // AND which side of a crash each market was simulated on.
  FoldMarketRecords(results, options.run_baseline, options.event_digests, &merged);
  return merged;
}

ShardedComparison RunShardedComparison(const PadConfig& config,
                                       const ShardEngineOptions& options) {
  StatusOr<ShardedComparison> result = RunShardedResumable(config, options);
  PAD_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return *std::move(result);
}

Comparison RunComparison(const PadConfig& config) { return RunShardedComparison(config).totals; }

}  // namespace pad
