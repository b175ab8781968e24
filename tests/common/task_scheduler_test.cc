#include "src/common/task_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace pad {
namespace {

// Mutex-protected record of every (worker, task) execution, the ground truth
// the exactly-once and ownership assertions check against.
struct ExecutionLog {
  std::mutex mutex;
  std::vector<std::pair<int, int64_t>> runs;

  void Record(int worker, int64_t task) {
    std::lock_guard<std::mutex> lock(mutex);
    runs.emplace_back(worker, task);
  }

  std::multiset<int64_t> Tasks() {
    std::lock_guard<std::mutex> lock(mutex);
    std::multiset<int64_t> tasks;
    for (const auto& [worker, task] : runs) {
      tasks.insert(task);
    }
    return tasks;
  }
};

std::multiset<int64_t> AllTasks(int64_t n) {
  std::multiset<int64_t> tasks;
  for (int64_t t = 0; t < n; ++t) {
    tasks.insert(t);
  }
  return tasks;
}

TEST(PartitionTasksTest, CoversRangeContiguouslyInOrder) {
  for (int64_t n : {0, 1, 5, 12, 100}) {
    for (int workers : {1, 2, 3, 7, 16}) {
      const auto queues = PartitionTasks(n, workers);
      ASSERT_EQ(static_cast<int>(queues.size()), workers);
      int64_t next = 0;
      for (const auto& queue : queues) {
        for (int64_t task : queue) {
          EXPECT_EQ(task, next) << "n=" << n << " workers=" << workers;
          ++next;
        }
      }
      EXPECT_EQ(next, n) << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(PartitionTasksTest, QueueSizesDifferByAtMostOne) {
  const auto queues = PartitionTasks(10, 4);
  int64_t smallest = 10;
  int64_t largest = 0;
  for (const auto& queue : queues) {
    smallest = std::min<int64_t>(smallest, queue.size());
    largest = std::max<int64_t>(largest, queue.size());
  }
  EXPECT_LE(largest - smallest, 1);
}

// The one worker-count rule every fan-out shares (sweeps, the shard engine,
// adpad_sim's baseline ∥ PAD pair).
TEST(TaskSchedulerTest, ResolveWorkersAsksHardwareCapsAtJobsFloorsAtOne) {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  for (const int requested : {0, -1, -8}) {
    // <= 0 asks the hardware; the answer is never below one worker.
    EXPECT_EQ(std::max(1, std::min(hardware, 1000)), ResolveWorkers(requested, 1000))
        << "requested=" << requested;
  }
  EXPECT_EQ(1, ResolveWorkers(1, 100));
  EXPECT_EQ(4, ResolveWorkers(4, 100));
  // Never more workers than jobs...
  EXPECT_EQ(3, ResolveWorkers(8, 3));
  EXPECT_EQ(1, ResolveWorkers(0, 1));
  // ...but an empty batch still gets one worker to find it empty.
  EXPECT_EQ(1, ResolveWorkers(4, 0));
  EXPECT_EQ(1, ResolveWorkers(0, 0));
}

TEST(TaskSchedulerTest, EveryTaskRunsExactlyOnceAcrossShapes) {
  for (int64_t n : {0, 1, 7, 24}) {
    for (int workers : {1, 2, 3, 8}) {
      for (const bool stealing : {false, true}) {
        ExecutionLog log;
        TaskSchedulerOptions options;
        options.stealing = stealing;
        const TaskSchedulerStats stats = RunTaskQueues(
            PartitionTasks(n, workers),
            [&](int worker, int64_t task) { log.Record(worker, task); }, options);
        EXPECT_EQ(log.Tasks(), AllTasks(n))
            << "n=" << n << " workers=" << workers << " stealing=" << stealing;
        EXPECT_EQ(stats.workers, workers);
        EXPECT_EQ(stats.executed, n);
        EXPECT_FALSE(stats.interrupted);
        int64_t per_worker_sum = 0;
        ASSERT_EQ(static_cast<int>(stats.executed_per_worker.size()), workers);
        for (int64_t count : stats.executed_per_worker) {
          per_worker_sum += count;
        }
        EXPECT_EQ(per_worker_sum, n);
      }
    }
  }
}

TEST(TaskSchedulerTest, SingleQueueRunsInlineOnCallingThread) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::deque<int64_t>> queues(1);
  for (int64_t t = 0; t < 5; ++t) {
    queues[0].push_back(t);
  }
  int64_t next = 0;
  const TaskSchedulerStats stats = RunTaskQueues(std::move(queues), [&](int worker, int64_t task) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    // Inline execution also means strict front-to-back order.
    EXPECT_EQ(task, next++);
  });
  EXPECT_EQ(stats.executed, 5);
  EXPECT_EQ(stats.stolen, 0);
}

TEST(TaskSchedulerTest, IdleWorkersStealFromLoadedWorker) {
  // All tasks start on worker 0; workers 1..3 can only run by stealing. Each
  // task sleeps, so worker 0 cannot drain its queue before the thieves scan.
  std::vector<std::deque<int64_t>> queues(4);
  for (int64_t t = 0; t < 8; ++t) {
    queues[0].push_back(t);
  }
  ExecutionLog log;
  const TaskSchedulerStats stats =
      RunTaskQueues(std::move(queues), [&](int worker, int64_t task) {
        log.Record(worker, task);
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      });
  EXPECT_EQ(log.Tasks(), AllTasks(8));
  EXPECT_EQ(stats.executed, 8);
  EXPECT_GT(stats.stolen, 0);
  // A stolen task is exactly one that ran off worker 0.
  int64_t off_owner = 0;
  for (const auto& [worker, task] : log.runs) {
    if (worker != 0) {
      ++off_owner;
    }
  }
  EXPECT_EQ(stats.stolen, off_owner);
}

TEST(TaskSchedulerTest, StaticModeNeverStealsAndKeepsOwnership) {
  // Skewed shape: worker 0 holds everything. Without stealing, workers 1..3
  // must retire untouched even though worker 0 has a long tail left.
  std::vector<std::deque<int64_t>> queues(4);
  for (int64_t t = 0; t < 8; ++t) {
    queues[0].push_back(t);
  }
  TaskSchedulerOptions options;
  options.stealing = false;
  ExecutionLog log;
  const TaskSchedulerStats stats =
      RunTaskQueues(std::move(queues),
                    [&](int worker, int64_t task) {
                      log.Record(worker, task);
                      std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    },
                    options);
  EXPECT_EQ(log.Tasks(), AllTasks(8));
  EXPECT_EQ(stats.stolen, 0);
  EXPECT_EQ(stats.executed_per_worker[0], 8);
  for (const auto& [worker, task] : log.runs) {
    EXPECT_EQ(worker, 0);
  }
}

TEST(TaskSchedulerTest, StealSeedChangesNothingObservable) {
  for (const uint64_t seed : {0ull, 1ull, 2ull, 0xdecafbadull}) {
    TaskSchedulerOptions options;
    options.steal_seed = seed;
    ExecutionLog log;
    const TaskSchedulerStats stats = RunTaskQueues(
        PartitionTasks(20, 4),
        [&](int worker, int64_t task) {
          log.Record(worker, task);
          // Skew the cost so steals actually happen: low task ids are slow.
          if (task < 5) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        },
        options);
    EXPECT_EQ(log.Tasks(), AllTasks(20)) << "seed=" << seed;
    EXPECT_EQ(stats.executed, 20) << "seed=" << seed;
  }
}

TEST(TaskSchedulerTest, PreSetStopRequestedRunsNothing) {
  std::atomic<bool> stop{true};
  TaskSchedulerOptions options;
  options.stop_requested = &stop;
  ExecutionLog log;
  const TaskSchedulerStats stats = RunTaskQueues(
      PartitionTasks(12, 3), [&](int worker, int64_t task) { log.Record(worker, task); },
      options);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.executed, 0);
  EXPECT_TRUE(log.Tasks().empty());
}

TEST(TaskSchedulerTest, MidRunStopDrainsWithoutDuplicates) {
  std::atomic<bool> stop{false};
  TaskSchedulerOptions options;
  options.stop_requested = &stop;
  ExecutionLog log;
  std::atomic<int64_t> ran{0};
  const TaskSchedulerStats stats = RunTaskQueues(
      PartitionTasks(32, 4),
      [&](int worker, int64_t task) {
        log.Record(worker, task);
        if (ran.fetch_add(1) + 1 == 3) {
          stop.store(true);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      },
      options);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_GE(stats.executed, 3);
  EXPECT_LT(stats.executed, 32);
  // Whatever ran, ran exactly once.
  const auto tasks = log.Tasks();
  EXPECT_EQ(static_cast<int64_t>(tasks.size()), stats.executed);
  std::set<int64_t> unique(tasks.begin(), tasks.end());
  EXPECT_EQ(unique.size(), tasks.size());
}

TEST(TaskSchedulerTest, FirstExceptionRethrownAfterFullDrain) {
  ExecutionLog log;
  EXPECT_THROW(
      RunTaskQueues(PartitionTasks(10, 2),
                    [&](int worker, int64_t task) {
                      log.Record(worker, task);
                      if (task == 4) {
                        throw std::runtime_error("task 4 failed");
                      }
                    }),
      std::runtime_error);
  // The failure latches but does not cancel the drain: every task still ran.
  EXPECT_EQ(log.Tasks(), AllTasks(10));
}

}  // namespace
}  // namespace pad
