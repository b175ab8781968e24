// The PAD ad server: sells predicted client inventory and dispatches sold
// ads with probabilistic replication.
//
// Once per sale epoch E (see PadConfig::EpochS) it:
//   1. syncs clients — expired replicas are dropped and replicas of
//      impressions billed elsewhere since the last epoch are invalidated
//      (the server knows placements, so invalidations are targeted and cost
//      a few piggybacked bytes);
//   2. sizes a sale per audience segment: predicted demand (per-client rate
//      x epoch, fractional remainders carried) capped by the segment's
//      *confident capacity* — the number of queued ads its clients would
//      drain before the deadline with probability >= capacity_confidence
//      (inventory control). Demand beyond that cap is left to be sold in
//      real time at display, exactly like the baseline, so aggressiveness
//      trades energy for risk, not revenue;
//   3. sells that many impressions in the exchange — before the slots
//      exist, which is the paper's architectural move. Targeted campaigns
//      only buy inventory of segments they cover;
//   4. plans a replica set per impression: primaries waterfill the eligible
//      (targeting-matched) clients with the most spare confident capacity;
//      the overbooking planner adds backups (by display-by-deadline
//      probability) until the SLA target or the fixed overbooking factor is
//      met. Frequency-capped campaigns get at most cap replicas per client
//      per epoch (ad diversity);
//   5. runs the rescue pass: a sold impression still open as its deadline
//      approaches, whose holders look unlikely to deliver, gets one extra
//      replica on the best eligible client;
//   6. hands each client its bundle (downloaded lazily at the client's next
//      radio wakeup).
#ifndef ADPAD_SRC_CORE_PAD_SERVER_H_
#define ADPAD_SRC_CORE_PAD_SERVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/auction/exchange.h"
#include "src/common/rng.h"
#include "src/common/small_vector.h"
#include "src/core/config.h"
#include "src/core/event_log.h"
#include "src/core/faults.h"
#include "src/core/pad_client.h"

namespace pad {

class PadServer {
 public:
  // `event_log` is optional instrumentation (may be null); it must outlive
  // the server.
  PadServer(const PadConfig& config, std::vector<std::unique_ptr<PadClient>>& clients,
            Exchange& exchange, uint64_t seed, EventLog* event_log = nullptr);

  // Runs one sale epoch starting at `now`.
  void RunEpoch(double now);

  // End-of-run bookkeeping: resolves the calibration outcome of impressions
  // still tracked after the final epoch (delivered if billed since the last
  // sync, missed otherwise). Call once, after the horizon.
  void FinalizeCalibration();

  int64_t impressions_sold() const { return impressions_sold_; }
  int64_t impressions_dispatched() const { return impressions_dispatched_; }
  int64_t rescues_dispatched() const { return rescues_dispatched_; }
  // Server-side fault accounting (missed syncs, offline epochs; zero when
  // faults are disabled). Client-side counters live on each PadClient.
  const FaultStats& fault_stats() const { return fault_stats_; }
  const std::array<CalibrationBucket, kCalibrationBuckets>& calibration() const {
    return calibration_;
  }

 private:
  struct Placement {
    int64_t campaign_id = 0;
    double deadline = 0.0;
    uint32_t segment_mask = kAllSegments;
    double predicted_success = 0.0;  // Planner's P(>= 1 display) at dispatch.
    // Inline storage: replica sets are primaries + backups + at most one
    // rescue, so the holder list almost never spills — one fewer heap
    // object per sold impression, and holder scans stay on the map node.
    SmallVector<int, 4> clients;
  };

  // Step 1: invalidation + expiry sync for every client.
  void SyncClients(double now);
  // Display probability of one candidate given current virtual queues.
  // Inline memo-hit path: step 5 asks for hundreds of millions of
  // probabilities per run and almost all of them are repeats, so the hit
  // must not pay a function call. Misses (including horizon changes) take
  // the out-of-line path, which recomputes the identical pure expression.
  double CandidateProbability(int client, double horizon) const {
    const int queue_ahead = static_cast<int>(virtual_queue_[static_cast<size_t>(client)]);
    const ProbMemoEntry& entry = prob_memo_[static_cast<size_t>(client)];
    if (horizon == prob_memo_horizon_ && entry.generation == prob_memo_generation_ &&
        entry.queue_ahead == queue_ahead) {
      return entry.value;
    }
    return CandidateProbabilityMiss(client, horizon, queue_ahead);
  }
  double CandidateProbabilityMiss(int client, double horizon, int queue_ahead) const;
  // Whether `client` may receive one more replica of this impression
  // (targeting match, spare capacity unless `require_capacity` is false,
  // frequency/diversity cap).
  bool Eligible(int client, const SoldImpression& impression, bool require_capacity) const;
  // Distinct eligible candidate list: per masked segment, the clients with
  // the most spare capacity, plus random eligible extras.
  void BuildCandidates(const SoldImpression& impression, std::vector<int>& candidates);
  // Commits one replica: bundle entry, bookkeeping, diversity counter.
  void Dispatch(int client, const SoldImpression& impression, Placement* placement,
                bool rescue = false);

  const PadConfig& config_;
  std::vector<std::unique_ptr<PadClient>>& clients_;
  Exchange& exchange_;
  ReplicationPlanner planner_;
  Rng rng_;
  EventLog* event_log_ = nullptr;
  // Same (config.faults, config.seed) plan as every client, so the server's
  // view of who is offline agrees with the clients' own draws.
  FaultPlan faults_;
  FaultStats fault_stats_;
  int num_segments_ = 1;
  double epoch_now_ = 0.0;
  int64_t epoch_index_ = 0;  // Index for the sync-miss draws.

  // Static: which clients belong to each segment, and each client's segment.
  std::vector<std::vector<int>> segment_clients_;
  std::vector<int> client_segment_;

  // What the server heard from each client, snapshot once per epoch in step
  // 2 so the hot checks index a flat array instead of chasing clients_[c].
  // Rates change only in StartWindow, which runs before RunEpoch; caches
  // change only in the step-1 sync, before the snapshot, and in the step-6
  // hand-over, after the last reader.
  struct ReportedState {
    double rate = 0.0;      // reported_rate()
    double var_rate = 0.0;  // reported_var_rate()
    int64_t cache_size = 0;
  };
  std::vector<ReportedState> reported_;

  // Per-epoch memo for CandidateProbability. Within one epoch the reported
  // rates are frozen, so the probability is a pure function of
  // (client, queue_ahead, horizon). Step 5 asks for thousands of
  // probabilities at one shared horizon (every sold impression's deadline is
  // now + display_deadline_s) while only queue_ahead moves, which made the
  // overdispersed tail sum the single hottest kernel in the profile. One
  // entry per client holds the last (queue_ahead, value) it computed: a
  // client's virtual queue only grows within an epoch, so an older queue
  // depth is never asked for again and a per-depth row would hit no more
  // often. The memo is invalidated whenever the epoch or the horizon
  // changes, so the rescue pass (per-placement horizons) caches within one
  // placement and never poisons step 5.
  struct ProbMemoEntry {
    uint64_t generation = 0;
    int queue_ahead = 0;
    double value = 0.0;
  };
  mutable std::vector<ProbMemoEntry> prob_memo_;
  mutable uint64_t prob_memo_generation_ = 0;
  mutable double prob_memo_horizon_ = 0.0;

  // Fractional predicted-slot remainder per client.
  std::vector<double> carry_;
  // Scratch, rebuilt each epoch.
  std::vector<int64_t> avail_;
  std::vector<int64_t> virtual_queue_;
  std::vector<uint8_t> candidate_mark_;
  std::vector<uint8_t> offline_;  // Per-client offline mark for this epoch.
  // Per-segment capacity ordering (by avail desc).
  std::vector<std::vector<int>> segment_order_;
  // First index in segment_order_ whose client started the epoch with no
  // confident capacity. avail_ never grows within an epoch, so entries past
  // this point can never pass a require_capacity eligibility check and
  // capacity-gated candidate scans stop here.
  std::vector<size_t> segment_zero_;
  // Per-segment next-live index over segment_order_[s][0, segment_zero_[s]]:
  // next_live_[s][i] == i while that client has capacity left, and Dispatch
  // links it to i + 1 when it takes the client's last slot (index
  // segment_zero_[s] is the end sentinel). FindLive follows the links with
  // path compression, so capacity-gated scans visit only clients with
  // capacity, still in order; the ones skipped could only have failed the
  // eligibility check's capacity test.
  std::vector<std::vector<uint32_t>> next_live_;
  // Each client's index in its segment's order, for clients with capacity
  // at the start of the epoch.
  std::vector<uint32_t> order_pos_;
  // Per-epoch bundles under assembly. Sized once; cleared (capacity kept)
  // every epoch instead of reassigned.
  std::vector<std::vector<CachedAd>> bundles_;
  std::vector<int> scratch_candidates_;
  // Step-1 scratch: per-client invalidation id lists. Only the entries named
  // in `sync_touched_` hold anything; they are cleared (capacity kept) after
  // the sync instead of rebuilding the whole vector each epoch. Plain
  // vectors, not sets: a client holds at most one replica per impression, so
  // the ids are distinct by construction, and the consumers only test
  // membership.
  std::vector<std::vector<int64_t>> sync_invalidations_;
  std::vector<int> sync_touched_;
  // Step 4/5 scratch, reused across epochs.
  std::vector<SoldImpression> sold_scratch_;
  std::vector<int> candidates_scratch_;
  std::vector<double> probs_scratch_;
  // Diversity counter: replicas of (client, campaign) assigned this epoch.
  std::unordered_map<uint64_t, int> epoch_campaign_count_;

  // Live replica placements, for targeted invalidation and rescue. Both the
  // rescue pass and the expiry sweep are digest-locked to this map's
  // iteration order (the sweep folds `predicted_success` doubles into
  // calibration sums, so even "pure accounting" is order-visible) — do not
  // restructure the container or reorder its visits.
  std::unordered_map<int64_t, Placement> placements_;
  std::array<CalibrationBucket, kCalibrationBuckets> calibration_{};

  int64_t impressions_sold_ = 0;
  int64_t impressions_dispatched_ = 0;
  int64_t rescues_dispatched_ = 0;
};

}  // namespace pad

#endif  // ADPAD_SRC_CORE_PAD_SERVER_H_
