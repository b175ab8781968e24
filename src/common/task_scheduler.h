// Work-stealing task scheduler for coarse, independent, pre-partitioned jobs:
// the one executor every fan-out runs on — the shard engine's markets, the
// sweep engine's runs (src/core/sweep.h), and a comparison's baseline ∥ PAD
// pair. A worker that walks a sequential input stream (the shard engine's
// PopulationStream) wants to run *its own contiguous run* of tasks in order
// and only take someone else's work when it would otherwise idle:
//
//   * Each worker owns a deque seeded with its initial task run. The owner
//     pops from the FRONT, preserving the sequential order the caller built
//     the queue in (cheap stream reuse on the common path).
//   * A worker whose deque is empty steals from the BACK of a victim's
//     deque — the task farthest from the victim's current position — so a
//     steal costs the victim the least locality. Victims are scanned in a
//     pseudo-random order derived from (steal_seed, worker), which varies
//     the interleaving across runs without any shared RNG.
//   * Steal paths are mutex-sharded: one mutex per worker deque, held only
//     for a pop. Tasks are coarse (whole simulated markets or runs,
//     milliseconds to minutes each), so queue synchronization is noise; the
//     win is that no worker sits idle while another holds a long tail of
//     work.
//
// Determinism: the scheduler never owns randomness that a task can observe
// and never aggregates results — the caller slots outputs by task index.
// Which worker runs which task (and in what interleaving) is explicitly
// unspecified; callers must make tasks hermetic. Each job writing only its
// own result slot is what makes stealing safe for the shard engine's digest
// merge and the sweep engine's result vectors alike.
//
// No task is ever added after Run starts, so a worker that finds every deque
// empty can retire: all remaining tasks are already claimed and executing.
#ifndef ADPAD_SRC_COMMON_TASK_SCHEDULER_H_
#define ADPAD_SRC_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace pad {

struct TaskSchedulerOptions {
  // Allow workers with empty deques to take tasks from the back of other
  // workers' deques. Off, each worker runs exactly its initial queue — the
  // static-partition baseline the shard engine keeps for A/B comparison.
  bool stealing = true;

  // Seed for the per-worker victim-scan order. Execution-only: it changes
  // which worker wins a race for a task, never the set of tasks run. Tests
  // sweep it to exercise different steal interleavings.
  uint64_t steal_seed = 0;

  // Graceful-drain flag, polled before every claim. When it flips true,
  // workers finish the task they are inside and claim nothing more; Run
  // returns with interrupted = true. Null = never stop.
  const std::atomic<bool>* stop_requested = nullptr;
};

struct TaskSchedulerStats {
  int workers = 0;
  int64_t executed = 0;     // Tasks actually run (== total queued unless interrupted).
  int64_t stolen = 0;       // Executed tasks that ran on a non-initial owner.
  bool interrupted = false;
  // Per-worker execution counts (index = worker id), for imbalance reporting.
  std::vector<int64_t> executed_per_worker;
};

// Runs body(worker, task) exactly once for every task in `queues` (unless
// stop_requested interrupts the drain) and blocks until all claimed tasks
// finish. queues[w] is worker w's initial run, executed front to back; one
// worker is spawned per queue, with worker 0 running on the calling thread
// (a single queue therefore runs fully inline — the serial reference).
// If any body throws, the first exception is rethrown here after the drain;
// remaining tasks still run.
TaskSchedulerStats RunTaskQueues(std::vector<std::deque<int64_t>> queues,
                                 const std::function<void(int worker, int64_t task)>& body,
                                 const TaskSchedulerOptions& options = {});

// The worker-count rule every fan-out shares: `requested` <= 0 asks the
// hardware, never more workers than `jobs`, and always at least one.
int ResolveWorkers(int requested, int64_t jobs);

// Contiguous partition of tasks [0, n) into `workers` queues: worker w gets
// [w*n/workers, (w+1)*n/workers). The shard engine uses this so each
// worker's own run walks markets — and therefore users — in order.
std::vector<std::deque<int64_t>> PartitionTasks(int64_t n, int workers);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_TASK_SCHEDULER_H_
