// Result types for the end-to-end experiments: energy, service quality, and
// revenue accounting for a baseline or PAD run, plus the paired comparison
// every headline number comes from.
#ifndef ADPAD_SRC_CORE_METRICS_H_
#define ADPAD_SRC_CORE_METRICS_H_

#include <array>
#include <concepts>
#include <cstdint>
#include <type_traits>

#include "src/auction/ledger.h"
#include "src/radio/machine.h"

namespace pad {

// Population-aggregate energy, split by what the joules bought.
struct EnergyBreakdown {
  EnergyReport radio;     // All radio energy, attributed by TrafficCategory.
  double local_j = 0.0;   // CPU + display energy while apps foregrounded.

  // Energy of the advertising machinery: on-demand fetches, bulk prefetches,
  // and slot-report uploads, including the radio tails they caused. This is
  // the paper's "ad energy overhead".
  double AdEnergyJ() const;
  double CommEnergyJ() const { return radio.total_energy_j(); }
  double TotalJ() const { return CommEnergyJ() + local_j; }

  // Ads' share of communication energy (the paper's 65% number) and of total
  // energy (the 23% number).
  double AdShareOfComm() const;
  double AdShareOfTotal() const;

  // Accumulates another population's energy (shard merge).
  void Merge(const EnergyBreakdown& other);
};

// How ad slots got filled.
struct ServiceStats {
  int64_t slots = 0;             // Display opportunities that occurred.
  int64_t served_from_cache = 0; // Filled by a prefetched ad (no radio wakeup).
  int64_t fallback_fetches = 0;  // Cache empty: on-demand fetch like baseline.
  int64_t unfilled = 0;          // No cached ad and no demand at auction.
  int64_t expired_cache_drops = 0;  // Cached replicas discarded past deadline.

  double CacheHitRate() const {
    return slots > 0 ? static_cast<double>(served_from_cache) / static_cast<double>(slots) : 0.0;
  }

  void Merge(const ServiceStats& other);
};

struct BaselineResult {
  EnergyBreakdown energy;
  LedgerTotals ledger;
  ServiceStats service;
  double scored_days = 0.0;

  // Folds another shard's result into this one. Counters and energy sum;
  // scored_days must agree (every shard scores the same horizon).
  void Merge(const BaselineResult& other);
};

// What the fault-injection layer (core/faults.h) actually did to a PAD run.
// All zero when faults are disabled.
struct FaultStats {
  int64_t reports_dropped = 0;   // Slot reports lost in transit.
  int64_t reports_delayed = 0;   // Slot reports that arrived one window late.
  int64_t stale_windows = 0;     // Client-windows the server ran on a stale view.
  int64_t fetch_failures = 0;    // Bundle download attempts that failed.
  int64_t fetch_retries = 0;     // Attempts that were retries of a failed fetch.
  int64_t bundles_abandoned = 0; // Pending replicas dropped after the retry budget.
  int64_t syncs_missed = 0;      // Client-epochs whose invalidations were lost.
  int64_t offline_epochs = 0;    // Client-epochs offline at sale time (no dispatch).
  int64_t offline_fetch_misses = 0;  // Fallback fetches suppressed while offline.
  int64_t offline_violations = 0;    // Violations with >= 1 holder offline at expiry.

  void Merge(const FaultStats& other);
};

// One bucket of the overbooking model's calibration curve: impressions whose
// planned success probability fell in [lo, hi), and how many were actually
// billed before their deadline.
struct CalibrationBucket {
  int64_t planned = 0;
  int64_t delivered = 0;
  double sum_predicted = 0.0;

  double PredictedRate() const {
    return planned > 0 ? sum_predicted / static_cast<double>(planned) : 0.0;
  }
  double RealizedRate() const {
    return planned > 0 ? static_cast<double>(delivered) / static_cast<double>(planned) : 0.0;
  }
};
inline constexpr int kCalibrationBuckets = 10;

struct PadRunResult {
  EnergyBreakdown energy;
  LedgerTotals ledger;
  ServiceStats service;
  double scored_days = 0.0;

  // Calibration of the dispatch-time success model (bucket i covers
  // predicted probability [i/10, (i+1)/10)). Realized rates include the
  // rescue pass, so under-predicted buckets landing *above* the diagonal is
  // the designed behaviour.
  std::array<CalibrationBucket, kCalibrationBuckets> calibration{};

  int64_t impressions_dispatched = 0;  // Replica copies pushed to clients.
  int64_t impressions_sold = 0;

  // Fault-injection accounting (all zero in fault-free runs).
  FaultStats faults;
  double MeanReplication() const {
    return impressions_sold > 0
               ? static_cast<double>(impressions_dispatched) / static_cast<double>(impressions_sold)
               : 0.0;
  }

  // Folds another shard's result into this one (see BaselineResult::Merge).
  void Merge(const PadRunResult& other);
};

// ---------------------------------------------------------------------------
// The one field list of each result type. ForEachField(result, visit) calls
// visit(field) on every scalar field, each a double or an int64_t, in a fixed
// order. That order is both MetricsDigest's mixing order (src/core/sweep.cc)
// and the checkpoint journal's byte layout (src/core/checkpoint.cc): FNV-1a
// over a journal's encoded result block equals the result's digest.
// Reordering, adding or removing a line here moves every golden digest and
// strands every journal on disk. `result` may be const (encoding, digesting)
// or mutable (decoding into it).

template <typename T, typename Struct>
concept FieldsOf = std::same_as<std::remove_const_t<T>, Struct>;

template <FieldsOf<EnergyBreakdown> Energy, typename Visit>
void ForEachField(Energy& energy, Visit&& visit) {
  for (auto& category : energy.radio.by_category) {
    visit(category.transfer_j);
    visit(category.tail_j);
    visit(category.bytes);
    visit(category.transfers);
  }
  visit(energy.radio.promo_time_s);
  visit(energy.radio.active_time_s);
  visit(energy.radio.tail_time_s);
  visit(energy.local_j);
}

template <FieldsOf<LedgerTotals> Ledger, typename Visit>
void ForEachField(Ledger& ledger, Visit&& visit) {
  visit(ledger.sold);
  visit(ledger.billed);
  visit(ledger.violated);
  visit(ledger.excess_displays);
  visit(ledger.displays);
  visit(ledger.billed_revenue);
  visit(ledger.violated_value);
}

template <FieldsOf<ServiceStats> Service, typename Visit>
void ForEachField(Service& service, Visit&& visit) {
  visit(service.slots);
  visit(service.served_from_cache);
  visit(service.fallback_fetches);
  visit(service.unfilled);
  visit(service.expired_cache_drops);
}

template <FieldsOf<FaultStats> Faults, typename Visit>
void ForEachField(Faults& faults, Visit&& visit) {
  visit(faults.reports_dropped);
  visit(faults.reports_delayed);
  visit(faults.stale_windows);
  visit(faults.fetch_failures);
  visit(faults.fetch_retries);
  visit(faults.bundles_abandoned);
  visit(faults.syncs_missed);
  visit(faults.offline_epochs);
  visit(faults.offline_fetch_misses);
  visit(faults.offline_violations);
}

template <FieldsOf<BaselineResult> Result, typename Visit>
void ForEachField(Result& result, Visit&& visit) {
  ForEachField(result.energy, visit);
  ForEachField(result.ledger, visit);
  ForEachField(result.service, visit);
  visit(result.scored_days);
}

template <FieldsOf<PadRunResult> Result, typename Visit>
void ForEachField(Result& result, Visit&& visit) {
  ForEachField(result.energy, visit);
  ForEachField(result.ledger, visit);
  ForEachField(result.service, visit);
  visit(result.scored_days);
  for (auto& bucket : result.calibration) {
    visit(bucket.planned);
    visit(bucket.delivered);
    visit(bucket.sum_predicted);
  }
  visit(result.impressions_dispatched);
  visit(result.impressions_sold);
  ForEachField(result.faults, visit);
}

// Paired baseline/PAD run on the same trace and campaign stream.
struct Comparison {
  BaselineResult baseline;
  PadRunResult pad;

  // Headline metric: fraction of the baseline's ad energy that PAD removed.
  double AdEnergySavings() const;
  // Revenue under PAD relative to the baseline's billed revenue (1.0 = parity).
  double RevenueRatio() const;
};

}  // namespace pad

#endif  // ADPAD_SRC_CORE_METRICS_H_
