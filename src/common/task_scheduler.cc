#include "src/common/task_scheduler.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace pad {
namespace {

// One worker's deque plus its mutex, padded to a cache line so a steal on
// one deque never false-shares with the owner's pops on a neighbor.
struct alignas(64) WorkerDeque {
  std::mutex mutex;
  std::deque<int64_t> tasks;
};

// Per-worker counters, padded for the same reason; folded into the stats
// after the join, so they need no synchronization of their own.
struct alignas(64) WorkerCounters {
  int64_t executed = 0;
  int64_t stolen = 0;
};

class SchedulerState {
 public:
  SchedulerState(std::vector<std::deque<int64_t>> queues, const TaskSchedulerOptions& options)
      : options_(options), deques_(queues.size()), counters_(queues.size()) {
    for (size_t w = 0; w < queues.size(); ++w) {
      deques_[w].tasks = std::move(queues[w]);
    }
  }

  void RunWorker(int worker, const std::function<void(int worker, int64_t task)>& body) {
    uint64_t scan_state = options_.steal_seed ^ (0x9e3779b97f4a7c15ull * (worker + 1));
    const int workers = static_cast<int>(deques_.size());
    while (true) {
      if (options_.stop_requested != nullptr && options_.stop_requested->load()) {
        interrupted_.store(true, std::memory_order_relaxed);
        return;
      }
      int64_t task = -1;
      bool was_stolen = false;
      {
        std::lock_guard<std::mutex> lock(deques_[worker].mutex);
        if (!deques_[worker].tasks.empty()) {
          task = deques_[worker].tasks.front();
          deques_[worker].tasks.pop_front();
        }
      }
      if (task < 0 && options_.stealing && workers > 1) {
        // Scan the other deques once, starting at a pseudo-random victim.
        // Tasks are never added after Run starts, so a full empty scan means
        // everything left is already claimed — the worker can retire.
        const int start = static_cast<int>(SplitMix64(scan_state) % workers);
        for (int step = 0; step < workers && task < 0; ++step) {
          const int victim = (start + step) % workers;
          if (victim == worker) {
            continue;
          }
          std::lock_guard<std::mutex> lock(deques_[victim].mutex);
          if (!deques_[victim].tasks.empty()) {
            task = deques_[victim].tasks.back();
            deques_[victim].tasks.pop_back();
            was_stolen = true;
          }
        }
      }
      if (task < 0) {
        return;
      }
      try {
        body(worker, task);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!first_error_) {
          first_error_ = std::current_exception();
        }
      }
      ++counters_[worker].executed;
      if (was_stolen) {
        ++counters_[worker].stolen;
      }
    }
  }

  TaskSchedulerStats Finish() {
    TaskSchedulerStats stats;
    stats.workers = static_cast<int>(deques_.size());
    stats.interrupted = interrupted_.load(std::memory_order_relaxed);
    stats.executed_per_worker.reserve(counters_.size());
    for (const WorkerCounters& counters : counters_) {
      stats.executed += counters.executed;
      stats.stolen += counters.stolen;
      stats.executed_per_worker.push_back(counters.executed);
    }
    if (first_error_) {
      std::rethrow_exception(first_error_);
    }
    return stats;
  }

 private:
  const TaskSchedulerOptions options_;
  std::vector<WorkerDeque> deques_;
  std::vector<WorkerCounters> counters_;
  std::atomic<bool> interrupted_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

}  // namespace

int ResolveWorkers(int requested, int64_t jobs) {
  const int64_t asked =
      requested > 0 ? requested : static_cast<int>(std::thread::hardware_concurrency());
  // hardware_concurrency() may report 0 (unknown), and zero jobs still need
  // one worker to find the queue empty.
  return static_cast<int>(std::max<int64_t>(1, std::min(asked, jobs)));
}

std::vector<std::deque<int64_t>> PartitionTasks(int64_t n, int workers) {
  PAD_CHECK(n >= 0 && workers >= 1);
  std::vector<std::deque<int64_t>> queues(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const int64_t first = w * n / workers;
    const int64_t last = (w + 1) * n / workers;
    for (int64_t task = first; task < last; ++task) {
      queues[static_cast<size_t>(w)].push_back(task);
    }
  }
  return queues;
}

TaskSchedulerStats RunTaskQueues(std::vector<std::deque<int64_t>> queues,
                                 const std::function<void(int worker, int64_t task)>& body,
                                 const TaskSchedulerOptions& options) {
  PAD_CHECK(!queues.empty());
  const int workers = static_cast<int>(queues.size());
  SchedulerState state(std::move(queues), options);

  // Worker 0 is the calling thread, so a single queue runs fully inline and
  // even a saturated machine makes progress on the caller's own core.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back([&state, &body, w] { state.RunWorker(w, body); });
  }
  state.RunWorker(0, body);
  for (std::thread& thread : threads) {
    thread.join();
  }
  return state.Finish();
}

}  // namespace pad
