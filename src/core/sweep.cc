#include "src/core/sweep.h"

#include <atomic>
#include <bit>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/task_scheduler.h"

namespace pad {
namespace {

// Folds one result field as FNV-1a over its 8-byte encoding (an int64's two's
// complement, a double's IEEE bits), the bytes the checkpoint journal writes
// for it.
uint64_t FoldField(uint64_t hash, double value) {
  return FnvFoldU64(hash, std::bit_cast<uint64_t>(value));
}
uint64_t FoldField(uint64_t hash, int64_t value) {
  return FnvFoldU64(hash, static_cast<uint64_t>(value));
}

template <typename Result>
uint64_t DigestFields(const Result& result) {
  uint64_t hash = kFnvOffset;
  ForEachField(result, [&hash](auto field) { hash = FoldField(hash, field); });
  return hash;
}

}  // namespace

// Both fan-outs run on the work-stealing scheduler, one task per job. Each
// task runs the job a shared cursor hands out next, so jobs start in
// submission order, as a sweep wants when cost trends with the index (E7's
// capacity-confidence runs get cheaper as it rises). Job i writes only slot
// i of the results, so which worker runs it is invisible.
std::vector<Comparison> RunComparisonMany(std::span<const PadConfig> configs,
                                          const SweepOptions& options) {
  std::vector<Comparison> results(configs.size());
  const int64_t jobs = static_cast<int64_t>(configs.size());
  std::atomic<size_t> next_job{0};
  RunTaskQueues(PartitionTasks(jobs, ResolveWorkers(options.threads, jobs)), [&](int, int64_t) {
    const size_t job = next_job.fetch_add(1);
    results[job] = RunComparison(configs[job]);
  });
  return results;
}

std::vector<PadRunResult> RunPadMany(std::span<const PadConfig> configs,
                                     const SimInputs& inputs, const SweepOptions& options,
                                     std::vector<EventLog>* event_logs) {
  std::vector<PadRunResult> results(configs.size());
  if (event_logs != nullptr) {
    event_logs->assign(configs.size(), EventLog());
  }
  const int64_t jobs = static_cast<int64_t>(configs.size());
  std::atomic<size_t> next_job{0};
  RunTaskQueues(PartitionTasks(jobs, ResolveWorkers(options.threads, jobs)), [&](int, int64_t) {
    const size_t job = next_job.fetch_add(1);
    EventLog* log = event_logs != nullptr ? &(*event_logs)[job] : nullptr;
    results[job] = RunPad(configs[job], inputs, log);
  });
  return results;
}

std::vector<PadConfig> ReplicateWithSeeds(const PadConfig& base, int n, uint64_t base_seed) {
  PAD_CHECK(n >= 0);
  uint64_t state = base_seed;
  std::vector<PadConfig> configs(static_cast<size_t>(n), base);
  for (PadConfig& config : configs) {
    const uint64_t seed = SplitMix64(state);
    config.seed = seed;
    config.population.seed = SplitMix64(state);
    config.campaigns.seed = SplitMix64(state);
  }
  return configs;
}

uint64_t MetricsDigest(const BaselineResult& result) { return DigestFields(result); }

uint64_t MetricsDigest(const PadRunResult& result) { return DigestFields(result); }

uint64_t ComparisonDigest(const Comparison& comparison) {
  const uint64_t hash = FnvFoldU64(kFnvOffset, MetricsDigest(comparison.baseline));
  return FnvFoldU64(hash, MetricsDigest(comparison.pad));
}

uint64_t DigestCombine(std::span<const uint64_t> digests) {
  uint64_t hash = kFnvOffset;
  for (uint64_t value : digests) {
    hash = FnvFoldU64(hash, value);
  }
  return hash;
}

}  // namespace pad
