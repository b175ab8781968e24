#include "src/core/pad_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "src/common/check.h"
#include "src/overbook/display_model.h"

namespace pad {
namespace {

int CalibrationBucketOf(double p) {
  const int bucket = static_cast<int>(p * kCalibrationBuckets);
  return std::clamp(bucket, 0, kCalibrationBuckets - 1);
}

// The first live index at or after `i` in a next-live index, halving the
// path it walks.
uint32_t FindLive(std::vector<uint32_t>& next, uint32_t i) {
  while (next[i] != i) {
    next[i] = next[next[i]];
    i = next[i];
  }
  return i;
}

uint64_t DiversityKey(int client, int64_t campaign_id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(client)) << 32) ^
         static_cast<uint64_t>(campaign_id);
}

}  // namespace

PadServer::PadServer(const PadConfig& config, std::vector<std::unique_ptr<PadClient>>& clients,
                     Exchange& exchange, uint64_t seed, EventLog* event_log)
    : config_(config),
      clients_(clients),
      exchange_(exchange),
      planner_(config.planner),
      rng_(seed),
      event_log_(event_log),
      faults_(config.faults, config.seed),
      num_segments_(config.population.num_segments),
      carry_(clients.size(), 0.0),
      virtual_queue_(clients.size(), 0),
      candidate_mark_(clients.size(), 0),
      offline_(clients.size(), 0) {
  PAD_CHECK(!clients_.empty());
  PAD_CHECK(config_.candidate_pool >= 0);
  PAD_CHECK(config_.random_candidates >= 0);
  PAD_CHECK(num_segments_ >= 1 && num_segments_ <= kMaxSegments);
  segment_clients_.resize(static_cast<size_t>(num_segments_));
  client_segment_.resize(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    const int segment = clients_[c]->segment();
    PAD_CHECK_MSG(segment >= 0 && segment < num_segments_,
                  "client segment out of configured range");
    segment_clients_[static_cast<size_t>(segment)].push_back(static_cast<int>(c));
    client_segment_[c] = segment;
  }
  segment_order_.resize(static_cast<size_t>(num_segments_));
  segment_zero_.resize(static_cast<size_t>(num_segments_));
  next_live_.resize(static_cast<size_t>(num_segments_));
  order_pos_.resize(clients_.size());
  sync_invalidations_.resize(clients_.size());
  reported_.resize(clients_.size());
  prob_memo_.resize(clients_.size());
}

void PadServer::SyncClients(double now) {
  // Which impressions billed since last sync, and which clients hold them.
  // The per-client sets live in member scratch: only clients that actually
  // receive an invalidation this epoch touch a set, and the touched sets are
  // cleared (keeping their buckets) at the end.
  std::vector<std::vector<int64_t>>& per_client = sync_invalidations_;
  if (config_.invalidation_sync) {
    for (int64_t impression_id : exchange_.ledger().TakeRecentlyBilled()) {
      const auto it = placements_.find(impression_id);
      if (it == placements_.end()) {
        continue;  // Baseline-style fallback sale; nothing was replicated.
      }
      for (int client : it->second.clients) {
        std::vector<int64_t>& ids = per_client[static_cast<size_t>(client)];
        if (ids.empty()) {
          sync_touched_.push_back(client);
        }
        ids.push_back(impression_id);
      }
      CalibrationBucket& bucket =
          calibration_[static_cast<size_t>(CalibrationBucketOf(it->second.predicted_success))];
      ++bucket.planned;
      ++bucket.delivered;
      bucket.sum_predicted += it->second.predicted_success;
      placements_.erase(it);
    }
  }
  static const std::vector<int64_t> kEmpty;
  for (size_t c = 0; c < clients_.size(); ++c) {
    // A client the fault plan marks unreachable this epoch (missed sync or
    // offline) still expires its own replicas locally, but the invalidations
    // meant for it are lost forever — the billed set was already consumed
    // above, so the stale replicas surface later as excess displays.
    bool unreachable = false;
    if (faults_.enabled()) {
      if (faults_.SyncMissed(clients_[c]->client_id(), epoch_index_)) {
        unreachable = true;
        ++fault_stats_.syncs_missed;
        if (event_log_ != nullptr) {
          event_log_->OnFault(now, SimEventType::kSyncMiss, clients_[c]->client_id());
        }
      }
      unreachable = unreachable || offline_[c] != 0;
    }
    clients_[c]->SyncCache(
        now, (config_.invalidation_sync && !unreachable) ? per_client[c] : kEmpty);
  }
  for (int touched : sync_touched_) {
    per_client[static_cast<size_t>(touched)].clear();
  }
  sync_touched_.clear();
  // Forget placements whose deadline passed (their replicas self-expire).
  // These are the model's misses: dispatched but never delivered. The sweep
  // must visit expired entries in map iteration order: it folds
  // `predicted_success` doubles into the calibration sums, and FP addition
  // order is digest-visible, so a deadline-ordered (heap) sweep drifts.
  for (auto it = placements_.begin(); it != placements_.end();) {
    if (it->second.deadline <= now) {
      CalibrationBucket& bucket = calibration_[static_cast<size_t>(
          CalibrationBucketOf(it->second.predicted_success))];
      ++bucket.planned;
      bucket.sum_predicted += it->second.predicted_success;
      if (faults_.enabled()) {
        for (int holder : it->second.clients) {
          if (faults_.OfflineAt(clients_[static_cast<size_t>(holder)]->client_id(),
                                it->second.deadline)) {
            ++fault_stats_.offline_violations;
            break;
          }
        }
      }
      it = placements_.erase(it);
    } else {
      ++it;
    }
  }
}

double PadServer::CandidateProbabilityMiss(int client, double horizon, int queue_ahead) const {
  // Within one epoch the reported rates are frozen, so the probability is a
  // pure function of (client, queue_ahead, horizon); memoize it while the
  // horizon stays put (see prob_memo_ in the header). The memo only
  // short-circuits a recomputation of the identical pure expression, so
  // results are bit-identical with or without it. The hit path lives inline
  // in the header; this slow path refills the client's entry.
  if (horizon != prob_memo_horizon_) {
    ++prob_memo_generation_;
    prob_memo_horizon_ = horizon;
  }
  const ReportedState& reported = reported_[static_cast<size_t>(client)];
  const ClientSlotEstimate estimate{.client_id = client,
                                    .slots_per_s = reported.rate,
                                    .var_per_s = reported.var_rate,
                                    .queue_ahead = queue_ahead};
  const double p =
      DiscountedDisplayProbability(estimate, horizon, config_.planner.confidence_discount);
  prob_memo_[static_cast<size_t>(client)] = ProbMemoEntry{prob_memo_generation_, queue_ahead, p};
  return p;
}

bool PadServer::Eligible(int client, const SoldImpression& impression,
                         bool require_capacity) const {
  if (faults_.enabled() && offline_[static_cast<size_t>(client)] != 0) {
    return false;  // Unreachable this epoch: no bundle could be handed over.
  }
  const int segment = client_segment_[static_cast<size_t>(client)];
  if (((impression.segment_mask >> static_cast<uint32_t>(segment)) & 1u) == 0) {
    return false;
  }
  if (require_capacity && avail_[static_cast<size_t>(client)] <= 0) {
    return false;
  }
  if (impression.frequency_cap_per_day > 0) {
    const auto it = epoch_campaign_count_.find(DiversityKey(client, impression.campaign_id));
    if (it != epoch_campaign_count_.end() && it->second >= impression.frequency_cap_per_day) {
      return false;
    }
  }
  return true;
}

void PadServer::BuildCandidates(const SoldImpression& impression,
                                std::vector<int>& candidates) {
  candidates.clear();
  auto add_candidate = [&](int client) {
    if (candidate_mark_[static_cast<size_t>(client)] == 0) {
      candidate_mark_[static_cast<size_t>(client)] = 1;
      candidates.push_back(client);
    }
  };

  // Count masked segments so each contributes a fair share of the pool.
  int masked_segments = 0;
  for (int s = 0; s < num_segments_; ++s) {
    if ((impression.segment_mask >> static_cast<uint32_t>(s)) & 1u) {
      ++masked_segments;
    }
  }
  if (masked_segments > 0) {
    const int per_segment =
        std::max(2, (1 + config_.candidate_pool + masked_segments - 1) / masked_segments);
    for (int s = 0; s < num_segments_; ++s) {
      if (((impression.segment_mask >> static_cast<uint32_t>(s)) & 1u) == 0) {
        continue;
      }
      const std::vector<int>& order = segment_order_[static_cast<size_t>(s)];
      // Clients at or past segment_zero_ started the epoch with no confident
      // capacity, and the next-live index skips those that ran out since:
      // both could only fail the require_capacity check below.
      std::vector<uint32_t>& next = next_live_[static_cast<size_t>(s)];
      const size_t limit = segment_zero_[static_cast<size_t>(s)];
      int taken = 0;
      for (uint32_t i = FindLive(next, 0); i < limit && taken < per_segment;
           i = FindLive(next, i + 1)) {
        const int client = order[i];
        if (Eligible(client, impression, /*require_capacity=*/true)) {
          add_candidate(client);
          ++taken;
        }
      }
    }
  }

  // A few random eligible extras (capacity not required) for diversity.
  const int n = static_cast<int>(clients_.size());
  int guard = 0;
  int added = 0;
  while (added < config_.random_candidates && guard < 64 * (config_.random_candidates + 1)) {
    ++guard;
    const int client = static_cast<int>(rng_.UniformInt(0, n - 1));
    if (candidate_mark_[static_cast<size_t>(client)] == 0 &&
        Eligible(client, impression, /*require_capacity=*/false)) {
      add_candidate(client);
      ++added;
    }
  }

  for (int candidate : candidates) {
    candidate_mark_[static_cast<size_t>(candidate)] = 0;
  }
}

void PadServer::Dispatch(int client, const SoldImpression& impression, Placement* placement,
                         bool rescue) {
  const CachedAd ad{impression.impression_id, impression.campaign_id, impression.deadline,
                    config_.ad_bytes};
  clients_[static_cast<size_t>(client)]->ReceiveAds(epoch_now_, std::span(&ad, 1));
  ++virtual_queue_[static_cast<size_t>(client)];
  if (--avail_[static_cast<size_t>(client)] == 0) {
    // Its last confident slot: capacity-gated scans skip it from now on.
    // (avail_ never grows mid-epoch, so the client had capacity at the
    // start and sits inside its segment's next-live index.)
    const uint32_t pos = order_pos_[static_cast<size_t>(client)];
    next_live_[static_cast<size_t>(client_segment_[static_cast<size_t>(client)])][pos] = pos + 1;
  }
  ++impressions_dispatched_;
  if (event_log_ != nullptr) {
    event_log_->OnDispatch(epoch_now_, impression.impression_id, impression.campaign_id,
                           client, rescue);
  }
  if (impression.frequency_cap_per_day > 0) {
    ++epoch_campaign_count_[DiversityKey(client, impression.campaign_id)];
  }
  if (placement != nullptr) {
    placement->clients.push_back(client);
  }
}

void PadServer::FinalizeCalibration() {
  if (!config_.invalidation_sync) {
    return;  // Placements were never tracked.
  }
  for (int64_t impression_id : exchange_.ledger().TakeRecentlyBilled()) {
    const auto it = placements_.find(impression_id);
    if (it == placements_.end()) {
      continue;
    }
    CalibrationBucket& bucket =
        calibration_[static_cast<size_t>(CalibrationBucketOf(it->second.predicted_success))];
    ++bucket.planned;
    ++bucket.delivered;
    bucket.sum_predicted += it->second.predicted_success;
    placements_.erase(it);
  }
  for (const auto& [impression_id, placement] : placements_) {
    CalibrationBucket& bucket =
        calibration_[static_cast<size_t>(CalibrationBucketOf(placement.predicted_success))];
    ++bucket.planned;
    bucket.sum_predicted += placement.predicted_success;
  }
  placements_.clear();
}

void PadServer::RunEpoch(double now) {
  const double epoch_s = config_.EpochS();
  const size_t n = clients_.size();
  epoch_now_ = now;

  // New epoch, new reported rates: poison the probability memo. NaN never
  // compares equal to a horizon, so the first CandidateProbability call of
  // the epoch starts a fresh generation.
  ++prob_memo_generation_;
  prob_memo_horizon_ = std::numeric_limits<double>::quiet_NaN();

  // 0. Mark who the fault plan holds offline this epoch, before any step
  // that reads reachability (sync, capacity, eligibility, rescue, sizing).
  if (faults_.enabled()) {
    for (size_t c = 0; c < n; ++c) {
      offline_[c] = faults_.OfflineAt(clients_[c]->client_id(), now) ? 1 : 0;
      if (offline_[c] != 0) {
        ++fault_stats_.offline_epochs;
        if (event_log_ != nullptr) {
          event_log_->OnFault(now, SimEventType::kOfflineEpoch, clients_[c]->client_id());
        }
      }
    }
  }

  // 1. Sync caches (expiry + targeted invalidation).
  SyncClients(now);

  // 2. Confident capacity per client, per-segment capacity orderings. Built
  // on the *reported* rates: the server plans with what it heard, not with
  // the client-side truth the fault plan may have withheld.
  avail_.assign(n, 0);
  for (size_t c = 0; c < n; ++c) {
    ReportedState& reported = reported_[c];
    reported = ReportedState{clients_[c]->reported_rate(), clients_[c]->reported_var_rate(),
                             clients_[c]->cache_size()};
    const ClientSlotEstimate estimate{.client_id = static_cast<int>(c),
                                      .slots_per_s = reported.rate,
                                      .var_per_s = reported.var_rate,
                                      .queue_ahead = 0};
    const int capacity = ConfidentCapacity(estimate, epoch_s, config_.capacity_confidence);
    avail_[c] = std::max<int64_t>(0, capacity - reported.cache_size);
    virtual_queue_[c] = reported.cache_size;
    if (faults_.enabled() && offline_[c] != 0) {
      avail_[c] = 0;  // Nothing can be handed to an unreachable client.
    }
  }
  for (int s = 0; s < num_segments_; ++s) {
    std::vector<int>& order = segment_order_[static_cast<size_t>(s)];
    order = segment_clients_[static_cast<size_t>(s)];
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
      return avail_[static_cast<size_t>(a)] > avail_[static_cast<size_t>(b)];
    });
    // Sorted descending by avail, and avail only shrinks within the epoch:
    // everything past the first zero can never regain capacity, so the
    // candidate scans below stop there instead of walking the whole segment.
    const size_t zero = static_cast<size_t>(
        std::partition_point(order.begin(), order.end(),
                             [this](int c) { return avail_[static_cast<size_t>(c)] > 0; }) -
        order.begin());
    segment_zero_[static_cast<size_t>(s)] = zero;
    std::vector<uint32_t>& next = next_live_[static_cast<size_t>(s)];
    next.resize(zero + 1);
    std::iota(next.begin(), next.end(), 0u);
    for (size_t i = 0; i < zero; ++i) {
      order_pos_[static_cast<size_t>(order[i])] = static_cast<uint32_t>(i);
    }
  }
  epoch_campaign_count_.clear();

  // 3. Rescue pass: a sold impression that is still open as its deadline
  // approaches, and whose holders look unlikely to deliver, gets one extra
  // replica on the best eligible client. Insurance bought only once the
  // original placement has demonstrably not paid out.
  if (config_.rescue_enabled && config_.invalidation_sync) {
    const double rescue_horizon =
        config_.rescue_horizon_s > 0.0 ? config_.rescue_horizon_s : epoch_s;
    for (auto& [impression_id, placement] : placements_) {
      if (placement.deadline - now > rescue_horizon) {
        continue;  // Not yet at risk.
      }
      // The server cannot see an ad's exact queue position, so it estimates
      // each holder's chance with the ad halfway down its cache.
      double all_miss = 1.0;
      for (int holder : placement.clients) {
        if (faults_.enabled() && offline_[static_cast<size_t>(holder)] != 0) {
          continue;  // Offline holder: count it as certain to miss.
        }
        const ReportedState& reported = reported_[static_cast<size_t>(holder)];
        const ClientSlotEstimate estimate{.client_id = holder,
                                          .slots_per_s = reported.rate,
                                          .var_per_s = reported.var_rate,
                                          .queue_ahead = static_cast<int>(reported.cache_size / 2)};
        all_miss *= 1.0 - DisplayProbability(estimate, placement.deadline - now);
      }
      if (1.0 - all_miss >= config_.rescue_threshold) {
        continue;  // Holders are likely to deliver on their own.
      }
      // Synthesize the impression view the eligibility check needs.
      SoldImpression impression;
      impression.impression_id = impression_id;
      impression.campaign_id = placement.campaign_id;
      impression.deadline = placement.deadline;
      impression.segment_mask = placement.segment_mask;
      int chosen = -1;
      for (int s = 0; s < num_segments_ && chosen < 0; ++s) {
        if (((placement.segment_mask >> static_cast<uint32_t>(s)) & 1u) == 0) {
          continue;
        }
        for (int client : segment_order_[static_cast<size_t>(s)]) {
          if (avail_[static_cast<size_t>(client)] <= 0) {
            break;  // Sorted: no capacity remains in this segment.
          }
          if (Eligible(client, impression, /*require_capacity=*/true) &&
              std::find(placement.clients.begin(), placement.clients.end(), client) ==
                  placement.clients.end()) {
            chosen = client;
            break;
          }
        }
      }
      if (chosen < 0) {
        // Nobody has spare *confident* capacity (a quiet night). A certain
        // violation is worse than a crowded queue: take the eligible client
        // with the best raw display probability instead.
        scratch_candidates_.clear();
        BuildCandidates(impression, scratch_candidates_);
        double best_p = 0.0;
        for (int candidate : scratch_candidates_) {
          if (std::find(placement.clients.begin(), placement.clients.end(), candidate) !=
              placement.clients.end()) {
            continue;
          }
          const double p = CandidateProbability(candidate, placement.deadline - now);
          if (p > best_p) {
            best_p = p;
            chosen = candidate;
          }
        }
      }
      if (chosen < 0) {
        continue;
      }
      Dispatch(chosen, impression, &placement, /*rescue=*/true);
      ++rescues_dispatched_;
    }
  }

  // 4. Per-segment sale sizing and sales. Segment order is shuffled so
  // multi-segment campaigns do not always land on segment 0's inventory.
  std::vector<SoldImpression>& sold = sold_scratch_;
  sold.clear();
  {
    const std::vector<int> segment_sequence = rng_.Permutation(num_segments_);
    for (int s : segment_sequence) {
      int64_t to_sell = 0;
      for (int client : segment_clients_[static_cast<size_t>(s)]) {
        if (faults_.enabled() && offline_[static_cast<size_t>(client)] != 0) {
          continue;  // No sale against unreachable inventory; carry untouched.
        }
        const double expected = reported_[static_cast<size_t>(client)].rate * epoch_s +
                                carry_[static_cast<size_t>(client)];
        int64_t slots = static_cast<int64_t>(std::floor(expected));
        carry_[static_cast<size_t>(client)] = expected - static_cast<double>(slots);
        if (config_.inventory_control) {
          // Cap per client, not per segment: a client with no confident
          // capacity (say, 2 a.m.) must not get sold against someone else's
          // — replicas could not legally rescue the mismatch into the same
          // thin hours, and early builds paid for it as night-time
          // violations.
          slots = std::min(slots, std::max<int64_t>(0, avail_[static_cast<size_t>(client)]));
        }
        to_sell += slots;
      }
      if (to_sell <= 0) {
        continue;
      }
      // Frequency-capped campaigns may buy at most cap x (clients they can
      // legally reach) per batch; anything more could never be dispatched.
      const auto batch_limit = [this](const Campaign& campaign) -> int64_t {
        if (campaign.frequency_cap_per_day <= 0) {
          return 0;  // Unlimited.
        }
        int64_t reachable = 0;
        for (int seg = 0; seg < num_segments_; ++seg) {
          if (campaign.Targets(seg)) {
            reachable += static_cast<int64_t>(segment_clients_[static_cast<size_t>(seg)].size());
          }
        }
        return std::max<int64_t>(1, campaign.frequency_cap_per_day * reachable);
      };
      const std::vector<SoldImpression>& batch =
          exchange_.SellSlots(now, to_sell, s, batch_limit);
      sold.insert(sold.end(), batch.begin(), batch.end());
    }
  }
  impressions_sold_ += static_cast<int64_t>(sold.size());

  // 5. Plan replicas per impression. Primaries waterfill the eligible
  // clients with the most spare confident capacity; the overbooking planner
  // adds backups while the chosen set's success probability misses the SLA
  // target (adaptive mode) or until the expected display mass reaches the
  // fixed overbooking factor.
  std::vector<int>& candidates = candidates_scratch_;
  std::vector<double>& probs = probs_scratch_;
  for (const SoldImpression& impression : sold) {
    BuildCandidates(impression, candidates);
    probs.clear();
    const double horizon = impression.deadline - now;
    for (int candidate : candidates) {
      probs.push_back(CandidateProbability(candidate, horizon));
    }

    const ReplicaPlan plan =
        config_.overbooking_factor > 0.0
            ? planner_.PlanWithFactor(probs, /*needed=*/1, config_.overbooking_factor)
            : planner_.PlanToTarget(probs, /*needed=*/1);

    Placement placement;
    placement.campaign_id = impression.campaign_id;
    placement.deadline = impression.deadline;
    placement.segment_mask = impression.segment_mask;
    placement.predicted_success = plan.success_probability;
    if (plan.chosen.empty()) {
      // Never dispatch zero replicas: an undisplayable sale is a guaranteed
      // violation, so at minimum the best candidate holds it.
      if (!candidates.empty()) {
        Dispatch(candidates.front(), impression, &placement);
      }
    } else {
      for (int chosen : plan.chosen) {
        Dispatch(candidates[static_cast<size_t>(chosen)], impression, &placement);
      }
    }
    if (config_.invalidation_sync) {
      placements_.emplace(impression.impression_id, std::move(placement));
    }
  }

  // 6. Sweep sales whose deadline passed without a display.
  exchange_.ledger().ExpireDeadlines(now);

  ++epoch_index_;
}

}  // namespace pad
