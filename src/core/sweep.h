// Parallel sweep engine: fans independent simulation runs out across the
// work-stealing task scheduler (src/common/task_scheduler.h) and returns
// results in submission order.
//
// Determinism contract: for a fixed config list, every result (metrics,
// ledger totals, event-log digest) is bit-identical regardless of the thread
// count or the schedule. Two properties make this hold:
//   * every job is hermetic — each run builds its own run queue, Exchange,
//     server, clients, predictors, and RNG streams from the job's config
//     seeds, and shared SimInputs are read-only on the run path;
//   * results are slotted by submission index, never by completion order,
//     whichever worker runs (or steals) a job.
// tests/integration/parallel_determinism_test.cc enforces the contract.
//
// Parallelism here is at sweep granularity: one job is one whole run. Within
// a run, overbooking pools risk across every client of the run's server
// (E10), so splitting a population is a semantic choice, not an execution
// one — PadConfig::market_users makes it, and the shard engine
// (shard_engine.h) runs the resulting markets on the same scheduler. A
// RunComparisonMany job is a call into that engine (RunComparison), so its
// config's market_users partitions it exactly as it would a single run.
#ifndef ADPAD_SRC_CORE_SWEEP_H_
#define ADPAD_SRC_CORE_SWEEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/config.h"
#include "src/core/event_log.h"
#include "src/core/metrics.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"

namespace pad {

struct SweepOptions {
  // Workers of the fan-out, resolved by ResolveWorkers (the calling thread is
  // worker 0). 1 runs everything inline, in order, with no threads created;
  // 0 asks the hardware; never more workers than jobs.
  int threads = 1;
};

// Runs RunComparison(configs[i]) for every config — inputs generated per job
// from the job's own config — and returns the comparisons in config order.
std::vector<Comparison> RunComparisonMany(std::span<const PadConfig> configs,
                                          const SweepOptions& options = {});

// Shared-input sweep: runs RunPad(configs[i], inputs) for every config
// against one immutable input set (the shape of the policy benches, where
// the trace is held fixed while a knob sweeps). When `event_logs` is
// non-null it is resized to configs.size() and log i records run i.
std::vector<PadRunResult> RunPadMany(std::span<const PadConfig> configs,
                                     const SimInputs& inputs,
                                     const SweepOptions& options = {},
                                     std::vector<EventLog>* event_logs = nullptr);

// Monte-Carlo helper: n copies of `base` whose seeds are decorrelated
// SplitMix64 draws from `base_seed`, for replication studies where each job
// must see an independent trace and market.
std::vector<PadConfig> ReplicateWithSeeds(const PadConfig& base, int n, uint64_t base_seed);

// FNV-1a digests over every field of a result, field by field in
// ForEachField's order (metrics.h), never raw struct bytes — padding is
// indeterminate. Two runs are byte-identical iff their digests match; the
// equivalence tests compare these.
uint64_t MetricsDigest(const BaselineResult& result);
uint64_t MetricsDigest(const PadRunResult& result);
uint64_t ComparisonDigest(const Comparison& comparison);

// Reduction over per-shard digests: mixes digests[i] into one FNV-1a hash in
// index order. Because inputs are slotted by shard index (never by
// completion order), the result is independent of scheduling — the shard
// engine merges event-log and metric digests through this, the same way the
// sweep engine slots per-job results.
uint64_t DigestCombine(std::span<const uint64_t> digests);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_SWEEP_H_
