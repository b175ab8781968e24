// Multi-process sharded execution: a coordinator that forks worker
// processes, hands out market ids over length-prefixed socketpair channels
// (src/common/ipc.h), and merges results by replaying the workers' own
// checkpoint journals.
//
// Why processes when the shard engine already has threads: the in-process
// engine dies as a unit — one OOM kill, one heap corruption, one stuck
// syscall takes every lane's un-journaled work with it. Forked workers fail
// independently: a SIGKILLed worker costs at most the market it was
// simulating, because everything it finished is already fsync'd in its own
// journal. Process isolation also sidesteps allocator and page-cache
// contention between lanes on large populations.
//
// The handoff protocol is built so that the JOURNAL, not the pipe, is the
// source of truth:
//
//   * worker i journals every completed market to `<checkpoint_path>.w<i>`
//     — the exact format core/checkpoint.h defines, same header fingerprint
//     as the main journal — with append -> fsync -> then DONE on the pipe,
//     in that order;
//   * the coordinator treats DONE as a hint. When a worker dies (SIGKILL,
//     nonzero exit, stall-kill), the coordinator reaps it FIRST, then reads
//     its journal post-mortem: markets present in the journal are complete
//     (even if the DONE never arrived); only absent assignments are
//     requeued to surviving workers. A market is therefore never
//     double-counted and never lost — exactly-once by construction, and the
//     proof is digest equality with the single-process engine;
//   * the final merge is a pure journal replay: read every worker journal,
//     dedupe by market id (digest equality enforced on any duplicate),
//     append unseen records to the main journal, fsync, unlink the worker
//     files, fsync the directory. A crash at ANY point in the merge leaves
//     a state the next run consolidates to the same bytes.
//
// Because the main journal ends up holding every completed market in the
// PR-4 format, runs are resumable ACROSS engines: a single-process run can
// resume a multi-process journal and vice versa, at any {processes,
// threads, residency, schedule, steal_seed} — the fingerprint covers only
// semantic config, never execution knobs.
//
// Determinism: workers execute the same SimulateMarket the in-process lanes
// do, and the coordinator folds records with the same FoldMarketRecords in
// market-index order, so the merged totals and every digest are
// byte-identical to RunShardedResumable for every tested combination,
// including under fault injection and worker death
// (tests/integration/multiproc_equivalence_test.cc,
// tests/integration/crash_recovery_test.cc).
#ifndef ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_
#define ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_

#include <sys/types.h>

#include <functional>
#include <string>

#include "src/common/status.h"
#include "src/core/config.h"
#include "src/core/shard_engine.h"

namespace pad {

struct MultiprocEngineOptions {
  // Worker processes to fork. Must be >= 1 (1 still forks: the paths are
  // identical, only the parallelism differs).
  int processes = 1;

  // The run itself. checkpoint_path is REQUIRED non-empty: worker journals
  // (`<checkpoint_path>.w<i>`) are the result transport and the crash-safety
  // story; there is no multi-process mode without them. threads / schedule /
  // steal_seed are accepted (execution-only knobs never change results) but
  // unused: each worker simulates its assignments single-threaded and the
  // coordinator's queue is the schedule.
  ShardEngineOptions engine;

  // Coordinator-side worker watchdog: a worker whose CURRENT assignment has
  // been outstanding longer than this is presumed wedged, SIGKILLed, reaped,
  // and its journal tail re-verified like any other death. <= 0 disables.
  // Distinct from engine.market_watchdog_s, which only *reports* (via
  // engine.on_stall, called with lane = worker index).
  double stall_kill_s = 0.0;

  // Test hook: called in the coordinator after each successful fork. Lets
  // crash tests aim a SIGKILL at a live worker mid-run.
  std::function<void(int worker, pid_t pid)> on_worker_spawn;
};

// The journal path worker `worker` appends to for a run checkpointing at
// `checkpoint_path`.
std::string WorkerJournalPath(const std::string& checkpoint_path, int worker);

// Empty when valid, else a one-line description (engine options are checked
// too, via ValidateShardOptions).
std::string ValidateMultiprocOptions(const PadConfig& config,
                                     const MultiprocEngineOptions& options);

// Runs the sharded comparison across forked worker processes. Byte-identical
// to RunShardedResumable(config, options.engine) — same totals, same
// per-market and combined digests — for any worker count, including runs
// where workers die mid-flight. Status surface:
//   * kInvalidArgument  — bad config/options (including processes < 1 or a
//                         missing checkpoint_path);
//   * kFailedPrecondition — a main or leftover worker journal belongs to a
//                         different experiment (stale fingerprint): refused,
//                         never clobbered;
//   * kAborted          — every worker died and markets remain. Completed
//                         markets are consolidated into the main journal
//                         before returning, so rerunning the same command
//                         (either engine) resumes instead of restarting;
//   * kDataLoss / kUnavailable — journal or channel corruption.
// MUST be called before the process creates any threads: the coordinator
// forks, and forking a multithreaded process is undefined enough to matter.
StatusOr<ShardedComparison> RunMultiprocSharded(const PadConfig& config,
                                                const MultiprocEngineOptions& options);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_
