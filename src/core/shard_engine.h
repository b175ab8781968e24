// Streaming, sharded simulation engine for population scales the monolithic
// path cannot hold in memory.
//
// The monolithic runners (pad_simulation.h) materialize every session of
// every user before the simulator starts, so resident memory — not CPU —
// caps a run at a few thousand users. This engine partitions the population
// into deterministic contiguous *markets* of `PadConfig::market_users`
// clients, generates each market's traces lazily inside the shard worker
// (trace/PopulationStream), runs the full PAD client/server loop per market,
// frees the market, and folds the per-market results with an
// order-independent reduction.
//
// RunShardedResumable is the one entry point for running a population. It
// validates, aligns, partitions and opens (or resumes) the journal once, then
// hands the pending markets to one of two executors — the lane scheduler
// here, or the forked coordinator (core/multiproc_engine.h) when
// `processes` > 0 — and folds the results once. RunShardedComparison and
// RunComparison are calls into it.
//
// Two kinds of knobs, and the contract that separates them:
//
//   * `PadConfig::market_users` is SEMANTIC. Each market is an independent
//     ad market — its own exchange, server, and a campaign stream scaled to
//     its population share — because overbooking pools risk across a server
//     instance's clients (see the note in sweep.h), so the partition is part
//     of the model, exactly as it is when a real ad network shards users
//     across server instances. 0 keeps one market spanning the whole
//     population: byte-identical to running RunBaseline and RunPad on the
//     whole population, which the shard equivalence test enforces.
//
//   * ShardEngineOptions (threads, schedule, steal_seed,
//     max_resident_users, processes) are EXECUTION-ONLY. For a fixed config,
//     every metric and event-log digest is byte-identical for any worker
//     count, schedule (static or work-stealing), steal seed, residency
//     budget and process count — including under fault injection. This
//     extends the sweep engine's determinism contract and holds for the
//     same reasons: every market job is hermetic (its own RNG streams
//     replayed from the population seed, its own exchange/server/clients),
//     and results are slotted by market index, never by completion order.
//     That order-independence is exactly what frees the scheduler
//     (src/common/task_scheduler.h, DESIGN.md §10) and the coordinator to
//     move markets between workers at will.
//
// Crash safety (core/checkpoint.h) extends the same contract into the crash
// dimension: with a checkpoint_path set, every completed market is journaled
// (CRC-framed, fsync'd), and a resumed run skips journaled markets — via
// PopulationStream's skip, which is bit-identical to generating — so the
// merged totals and digests match an uninterrupted run byte for byte, at any
// thread/schedule/residency setting on either side of the crash.
//
// tests/integration/shard_equivalence_test.cc and
// multiproc_equivalence_test.cc enforce the execution-knob half;
// tests/integration/crash_recovery_test.cc the crash half.
#ifndef ADPAD_SRC_CORE_SHARD_ENGINE_H_
#define ADPAD_SRC_CORE_SHARD_ENGINE_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/metrics.h"

namespace pad {

class PopulationStream;

// How markets are handed to the worker lanes.
enum class ScheduleMode {
  // Each worker runs exactly its contiguous initial range of markets — the
  // historical behavior, kept for A/B against stealing. On a skewed
  // population the worker owning the heavy markets becomes the critical
  // path while the rest idle.
  kStatic,
  // Work stealing (src/common/task_scheduler.h): each worker drains its own
  // range front-to-back but takes markets from the back of another worker's
  // queue rather than idle. The default — on balanced populations it
  // degenerates to the static schedule (no worker ever runs dry early).
  kStealing,
};

struct ShardEngineOptions {
  // Worker lanes, each an OS thread owning a deque of markets and its own
  // PopulationStream, resolved by ResolveWorkers (src/common/task_scheduler.h):
  // 0 asks the hardware, and there are never more lanes than markets.
  // Unused when processes > 0, as are schedule and steal_seed: each worker
  // process runs one market at a time from the coordinator's queue.
  int threads = 1;
  // Market hand-off policy. Execution-only, like every knob below: results
  // are byte-identical under either schedule.
  ScheduleMode schedule = ScheduleMode::kStealing;
  // Seed for the steal victim-scan order (execution-only; tests sweep it to
  // exercise different steal interleavings).
  uint64_t steal_seed = 0;
  // Upper bound on users resident (generated but not yet freed) across all
  // lanes at any instant; an admission gate blocks a lane whose next market
  // would exceed it. 0 = unlimited. Must be >= the largest market.
  int64_t max_resident_users = 0;
  // Run the paired baseline on each market too (the comparison headline).
  // Off, totals.baseline stays zero and baseline digests are empty.
  bool run_baseline = true;
  // Record each market's PAD event log and keep its digest (the log itself
  // is dropped with the market, so memory stays bounded).
  bool event_digests = false;

  // Non-empty: journal every completed market to this file (core/checkpoint.h)
  // and, when the file already holds a valid journal for this config, resume
  // from it instead of re-simulating the journaled markets.
  std::string checkpoint_path;
  // fsync after every journal record (the crash-safety guarantee). Off trades
  // that guarantee for throughput — records can be lost on power failure, but
  // whatever survives still CRC-validates.
  bool checkpoint_fsync = true;

  // Graceful-shutdown flag, polled between markets. When it flips true, every
  // lane finishes the market it is simulating (journaling it as usual) and
  // stops taking new ones; the run returns with interrupted = true and the
  // journal positioned for resume. Null = never stop.
  const std::atomic<bool>* stop_requested = nullptr;

  // Watchdog: a market whose wall-clock time exceeds this budget is reported
  // through on_stall (observability only — the market keeps running, since
  // killing it would break determinism). <= 0 disables. Under processes > 0,
  // `lane` is the worker index.
  double market_watchdog_s = 0.0;
  std::function<void(int lane, int market, double elapsed_s)> on_stall;

  // 0 runs the markets on in-process lanes; N >= 1 forks N worker processes
  // (core/multiproc_engine.h), capped at the market count, and requires
  // checkpoint_path: the workers' journals carry the results.
  int processes = 0;
  // processes > 0 only: SIGKILL, reap and requeue a worker whose market has
  // been outstanding longer than this (<= 0 disables; the watchdog only reports).
  double stall_kill_s = 0.0;
  // Test hook, processes > 0 only: called in the coordinator after each fork.
  std::function<void(int worker, pid_t pid)> on_worker_spawn;
};

struct ShardedComparison {
  // Per-market results folded in market-index order. With one market this
  // is bit-identical to running RunBaseline and RunPad on the population.
  Comparison totals;

  int num_markets = 0;
  int64_t total_users = 0;
  int64_t total_sessions = 0;   // Session count across all generated traces.
  // High-water mark of concurrently resident users (admission-gate peak).
  int64_t peak_resident_users = 0;

  // Per-market digests, indexed by market, plus their DigestCombine
  // reduction. baseline digests are empty when run_baseline is off; event
  // digests are empty unless requested.
  std::vector<uint64_t> market_pad_digests;
  std::vector<uint64_t> market_baseline_digests;
  std::vector<uint64_t> market_event_digests;
  uint64_t combined_pad_digest = 0;
  uint64_t combined_baseline_digest = 0;
  uint64_t combined_event_digest = 0;

  // CPU-time style accounting summed over markets (not wall clock): trace
  // generation vs client/server simulation.
  double generate_seconds = 0.0;
  double simulate_seconds = 0.0;

  // Scheduler execution trace (never checkpointed — a resumed market was not
  // executed, so it keeps worker -1 and zero busy time). market_busy_s is
  // thread-CPU seconds, so per-worker sums measure load balance faithfully
  // even on an oversubscribed machine where wall clock cannot.
  std::vector<int> market_workers;      // Worker that simulated each market.
  std::vector<double> market_busy_s;    // Thread-CPU cost of each market.
  // Depends on the executor. In process it is the number of lanes started,
  // whether or not each ran a market, so every market_workers entry is
  // below it (E19, skewed_population, indexes per-worker sums by it). With
  // processes > 0 it is the number of distinct workers that completed a
  // market in this call: 0 when every market was resumed from the journal.
  int workers_used = 0;
  int64_t tasks_stolen = 0;             // Markets run by a non-initial owner.

  // Multi-process execution trace (core/multiproc_engine.h); zero when
  // processes is 0. workers_died counts worker processes that exited or
  // were killed before draining their assignments; markets_reassigned counts
  // assignments that had to be handed to a surviving worker.
  int worker_processes = 0;
  int workers_died = 0;
  int64_t markets_reassigned = 0;

  // Markets restored from the checkpoint journal instead of simulated.
  int resumed_markets = 0;
  // True when stop_requested fired before every market completed. The totals
  // and digests cover only completed markets; the journal holds them all, so
  // rerunning with the same checkpoint_path finishes the job.
  bool interrupted = false;
};

// Checks the engine options against the config (budget at least one market,
// sane counts, a journal whenever processes > 0). Empty string when valid,
// else a one-line description.
std::string ValidateShardOptions(const PadConfig& config, const ShardEngineOptions& options);

// Runs the streaming sharded simulation with the full robustness surface:
// checkpoint/resume, graceful shutdown, the watchdog, and forked workers.
// Failures come back as Status, never an abort: kInvalidArgument for bad
// config/options, kFailedPrecondition for a journal of another experiment
// (refused, never clobbered), kNotFound / kUnavailable for journal, fork or
// channel I/O, kDataLoss for a corrupt journal or frame, and kAborted when
// every forked worker died with markets left (the completed ones are
// journaled, so rerunning resumes). With processes > 0, call it before the
// process creates any thread: the coordinator forks.
StatusOr<ShardedComparison> RunShardedResumable(const PadConfig& config,
                                                const ShardEngineOptions& options = {});

// Runs the streaming sharded simulation. PAD_CHECKs that config and options
// validate and the run succeeds; tools should call the validators first for
// a clean message. For callers without a checkpoint.
ShardedComparison RunShardedComparison(const PadConfig& config,
                                       const ShardEngineOptions& options = {});

// The paired comparison of one config: RunShardedComparison(config).totals,
// so `market_users` partitions it like any other run.
Comparison RunComparison(const PadConfig& config);

// The market partition the engine uses, exposed for tests and tools:
// market m covers users [boundaries[m], boundaries[m + 1]).
std::vector<int64_t> MarketBoundaries(int64_t num_users, int64_t market_users);

// The journal header describing a run of `aligned` (config fingerprint,
// population, partition, result flags) — what OpenOrResumeJournal checks an
// existing journal against. The entry point, the coordinator and its workers
// build their headers through this one function so "same experiment" has a
// single definition.
CheckpointHeader JournalHeaderFor(const PadConfig& aligned, int num_markets, bool run_baseline,
                                  bool event_digests);

// Simulates ONE market end to end — seek the stream to the market's first
// user, generate its traces, run baseline+PAD, digest — and returns the
// completed record. This is the hermetic unit both executors run: the lane
// scheduler runs it on a lane thread, the multi-process worker
// (core/multiproc_engine.h) runs it in a forked child, and because it
// depends only on (`aligned`, `boundaries`, `market`, flags) — never on who
// runs it or in what order — the two executors are byte-identical by
// construction. `aligned` must already be AlignInputsConfig'd; `stream` must
// be built over aligned.population (any position; the seek is bit-identical
// to sequential generation).
MarketRecord SimulateMarket(const PadConfig& aligned, const std::vector<int64_t>& boundaries,
                            int market, PopulationStream& stream, bool run_baseline,
                            bool event_digests);

// Seconds of steady-clock time since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

// CPU time consumed by the calling thread. Both executors measure each
// market's cost on this clock — a lane thread here, a forked worker in
// multiproc_engine.h — so per-worker sums report true load balance even when
// workers outnumber cores and wall clock would charge preemption to whoever
// held the core last.
double ThreadCpuSeconds();

// Peak resident set size in MiB: the larger of this process's own and that of
// its largest reaped child (the multi-process engine's workers). A process
// that never forks reads its own peak.
double PeakRssMib();

// Folds completed market records (slot m holds market m's record iff its
// .market == m; untouched slots keep the default -1) in market-index order —
// never completion order — into `merged`'s totals, session/time aggregates,
// and per-market + combined digests. RunShardedResumable folds through it
// once, whichever executor ran the markets, so the reduction is one piece of
// code: the exactly-once proof compares digests produced by this exact fold.
// Consumes the records (metric payloads are moved out).
void FoldMarketRecords(std::vector<MarketRecord>& records, bool run_baseline,
                       bool event_digests, ShardedComparison* merged);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_SHARD_ENGINE_H_
