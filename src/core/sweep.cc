#include "src/core/sweep.h"

#include <atomic>
#include <cstring>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/task_scheduler.h"

namespace pad {
namespace {

// FNV-1a, 64-bit.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

class Digest {
 public:
  Digest& Mix(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return MixU64(bits);
  }
  Digest& Mix(int64_t value) { return MixU64(static_cast<uint64_t>(value)); }

  Digest& Mix(const CategoryEnergy& energy) {
    return Mix(energy.transfer_j).Mix(energy.tail_j).Mix(energy.bytes).Mix(energy.transfers);
  }
  Digest& Mix(const EnergyBreakdown& energy) {
    for (const CategoryEnergy& category : energy.radio.by_category) {
      Mix(category);
    }
    return Mix(energy.radio.promo_time_s)
        .Mix(energy.radio.active_time_s)
        .Mix(energy.radio.tail_time_s)
        .Mix(energy.local_j);
  }
  Digest& Mix(const LedgerTotals& ledger) {
    return Mix(ledger.sold)
        .Mix(ledger.billed)
        .Mix(ledger.violated)
        .Mix(ledger.excess_displays)
        .Mix(ledger.displays)
        .Mix(ledger.billed_revenue)
        .Mix(ledger.violated_value);
  }
  Digest& Mix(const FaultStats& faults) {
    return Mix(faults.reports_dropped)
        .Mix(faults.reports_delayed)
        .Mix(faults.stale_windows)
        .Mix(faults.fetch_failures)
        .Mix(faults.fetch_retries)
        .Mix(faults.bundles_abandoned)
        .Mix(faults.syncs_missed)
        .Mix(faults.offline_epochs)
        .Mix(faults.offline_fetch_misses)
        .Mix(faults.offline_violations);
  }
  Digest& Mix(const ServiceStats& service) {
    return Mix(service.slots)
        .Mix(service.served_from_cache)
        .Mix(service.fallback_fetches)
        .Mix(service.unfilled)
        .Mix(service.expired_cache_drops);
  }

  uint64_t value() const { return hash_; }

 private:
  Digest& MixU64(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffull;
      hash_ *= kFnvPrime;
    }
    return *this;
  }

  uint64_t hash_ = kFnvOffset;
};

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

uint64_t MetricsDigest(const BaselineResult& result) {
  Digest digest;
  digest.Mix(result.energy).Mix(result.ledger).Mix(result.service).Mix(result.scored_days);
  return digest.value();
}

uint64_t MetricsDigest(const PadRunResult& result) {
  Digest digest;
  digest.Mix(result.energy).Mix(result.ledger).Mix(result.service).Mix(result.scored_days);
  for (const CalibrationBucket& bucket : result.calibration) {
    digest.Mix(bucket.planned).Mix(bucket.delivered).Mix(bucket.sum_predicted);
  }
  digest.Mix(result.impressions_dispatched).Mix(result.impressions_sold);
  digest.Mix(result.faults);
  return digest.value();
}

uint64_t ComparisonDigest(const Comparison& comparison) {
  Digest digest;
  digest.Mix(static_cast<int64_t>(MetricsDigest(comparison.baseline)))
      .Mix(static_cast<int64_t>(MetricsDigest(comparison.pad)));
  return digest.value();
}

uint64_t DigestCombine(std::span<const uint64_t> digests) {
  Digest digest;
  for (uint64_t value : digests) {
    digest.Mix(static_cast<int64_t>(value));
  }
  return digest.value();
}

}  // namespace pad
