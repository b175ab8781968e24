// Multi-process sharded execution: the executor RunShardedResumable
// (core/shard_engine.h) hands its pending markets to when
// ShardEngineOptions::processes > 0. A coordinator forks worker processes,
// hands out market ids over length-prefixed socketpair channels
// (src/common/ipc.h), and merges results by replaying the workers' own
// checkpoint journals.
//
// Why processes when the shard engine already has threads: the in-process
// lanes die as a unit — one OOM kill, one heap corruption, one stuck
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
//     proof is digest equality with the in-process lanes;
//   * the final merge is a pure journal replay: read every worker journal,
//     dedupe by market id (digest equality enforced on any duplicate),
//     append unseen records to the main journal, fsync, unlink the worker
//     files, fsync the directory. A crash at ANY point in the merge leaves
//     a state the next run consolidates to the same bytes.
//
// The main journal thus holds every completed market, so either executor
// resumes the other's journal at any process count: the fingerprint covers
// semantic config only, never execution knobs. Workers run the same
// SimulateMarket as the lanes and RunShardedResumable folds once, so every
// digest is byte-identical at every process count, under fault injection and
// worker death too (tests/integration/multiproc_equivalence_test.cc,
// crash_recovery_test.cc).
#ifndef ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_
#define ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/shard_engine.h"

namespace pad {

// The journal path worker `worker` appends to for a run checkpointing at
// `checkpoint_path`.
std::string WorkerJournalPath(const std::string& checkpoint_path, int worker);

// The forked executor, called by RunShardedResumable after it validated,
// partitioned `aligned` at `boundaries` and opened the main `journal`. It
// absorbs worker journals left by an interrupted run (counted in
// run->resumed_markets), forks the workers, simulates every market whose
// slot in `results` is empty, consolidates the worker journals into
// `journal` and `results`, and fills run's execution trace (its per-market
// vectors come sized) and process counters. The caller folds the results.
Status RunMarketsInProcesses(const PadConfig& aligned, const std::vector<int64_t>& boundaries,
                             const ShardEngineOptions& options, CheckpointWriter* journal,
                             std::vector<MarketRecord>& results, ShardedComparison* run);

// Forwarders for callers that still hold the process knobs beside the
// engine options (perfbench). Here processes must be at least 1.
struct MultiprocEngineOptions {
  int processes = 1;
  ShardEngineOptions engine;
  double stall_kill_s = 0.0;

  ShardEngineOptions Merged() const {
    ShardEngineOptions merged = engine;
    merged.processes = processes;
    merged.stall_kill_s = stall_kill_s;
    return merged;
  }
};

inline std::string ValidateMultiprocOptions(const PadConfig& config,
                                            const MultiprocEngineOptions& options) {
  return options.processes < 1 ? "processes must be at least 1"
                               : ValidateShardOptions(config, options.Merged());
}

inline StatusOr<ShardedComparison> RunMultiprocSharded(const PadConfig& config,
                                                       const MultiprocEngineOptions& options) {
  if (const std::string error = ValidateMultiprocOptions(config, options); !error.empty()) {
    return Status::InvalidArgument(error);
  }
  return RunShardedResumable(config, options.Merged());
}

}  // namespace pad

#endif  // ADPAD_SRC_CORE_MULTIPROC_ENGINE_H_
