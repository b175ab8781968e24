#include "src/core/pad_client.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/event_log.h"

namespace pad {

PadClient::PadClient(int client_id, int segment, const PadConfig& config,
                     std::unique_ptr<SlotPredictor> predictor)
    : client_id_(client_id),
      segment_(segment),
      config_(config),
      predictor_(std::move(predictor)),
      radio_(config.radio),
      wifi_radio_(config.wifi_radio),
      faults_(config.faults, config.seed) {
  PAD_CHECK(predictor_ != nullptr);
  PAD_CHECK(segment_ >= 0 && segment_ < kMaxSegments);
}

void PadClient::StartWindow(double now, int abs_window) {
  PAD_CHECK(abs_window >= 0);
  if (current_window_ >= 0) {
    predictor_->Observe(current_window_, window_slot_count_);
  }
  current_window_ = abs_window;
  window_slot_count_ = 0;

  const double max_slots = config_.max_slot_rate_per_s * config_.prediction_window_s;
  const double predicted_slots =
      std::clamp(predictor_->Predict(abs_window), 0.0, max_slots);
  const double predicted_var = std::clamp(predictor_->PredictVariance(abs_window), 0.0,
                                          max_slots * max_slots);
  predicted_rate_ = predicted_slots / config_.prediction_window_s;
  predicted_var_rate_ = predicted_var / config_.prediction_window_s;

  // Queue the report; a stale pending report that never found a wakeup to
  // ride is superseded (the client was idle, so the server lost nothing).
  // The bytes are queued regardless of the report's fate below: a report that
  // drops in transit still cost its uplink energy.
  pending_report_bytes_ = config_.slot_report_bytes;

  if (!faults_.enabled()) {
    reported_rate_ = predicted_rate_;
    reported_var_rate_ = predicted_var_rate_;
    return;
  }

  // A report the plan delayed last window arrives at this boundary, giving
  // the server a one-window-old view before this window's report is decided.
  bool fresh_view = false;
  if (have_delayed_report_) {
    reported_rate_ = delayed_rate_;
    reported_var_rate_ = delayed_var_rate_;
    have_delayed_report_ = false;
    fresh_view = true;
  }
  switch (faults_.ReportFateFor(client_id_, abs_window)) {
    case ReportFate::kDelivered:
      reported_rate_ = predicted_rate_;
      reported_var_rate_ = predicted_var_rate_;
      return;
    case ReportFate::kDelayed:
      ++fault_stats_.reports_delayed;
      have_delayed_report_ = true;
      delayed_rate_ = predicted_rate_;
      delayed_var_rate_ = predicted_var_rate_;
      break;
    case ReportFate::kDropped:
      ++fault_stats_.reports_dropped;
      break;
  }
  if (event_log_ != nullptr) {
    event_log_->OnFault(now, SimEventType::kReportDrop, client_id_);
  }
  // The server runs this window on a stale view. Unless a delayed report
  // just refreshed it, decay the visible rate toward the conservative prior
  // of zero — an unheard client should be sold less, not the same. The
  // variance is left alone: losing a report does not shrink uncertainty.
  ++fault_stats_.stale_windows;
  if (!fresh_view) {
    reported_rate_ *= config_.faults.stale_decay;
  }
}

RadioMachine& PadClient::Route(double t) {
  return WifiAvailableAt(config_.wifi, client_id_, t) ? wifi_radio_ : radio_;
}

void PadClient::FlushControlTraffic(double now) {
  if (faults_.enabled() && faults_.OfflineAt(client_id_, now)) {
    return;  // Ad infrastructure unreachable; bytes stay queued for later.
  }
  RadioMachine& radio = Route(now);
  if (pending_report_bytes_ > 0.0) {
    radio.Submit(Transfer{.request_time = now,
                           .bytes = pending_report_bytes_,
                           .direction = Direction::kUplink,
                           .category = TrafficCategory::kSlotReport});
    pending_report_bytes_ = 0.0;
  }
  if (pending_invalidation_bytes_ > 0.0) {
    radio.Submit(Transfer{.request_time = now,
                           .bytes = pending_invalidation_bytes_,
                           .direction = Direction::kDownlink,
                           .category = TrafficCategory::kSlotReport});
    pending_invalidation_bytes_ = 0.0;
  }
}

void PadClient::ReceiveAds(double now, std::span<const CachedAd> ads) {
  (void)now;
  pending_ads_.insert(pending_ads_.end(), ads.begin(), ads.end());
}

void PadClient::FlushPendingAds(double now) {
  if (pending_ads_.empty()) {
    return;
  }
  if (faults_.enabled()) {
    if (faults_.OfflineAt(client_id_, now)) {
      return;  // Bundle server unreachable; the bundle waits for a later wakeup.
    }
    ++fetch_attempts_;
    if (fetch_failure_streak_ > 0) {
      ++fault_stats_.fetch_retries;
    }
    if (faults_.FetchFails(client_id_, fetch_attempts_)) {
      ++fault_stats_.fetch_failures;
      if (event_log_ != nullptr) {
        event_log_->OnFault(now, SimEventType::kFetchFailure, client_id_);
      }
      // A failed download still moved (most of) the payload over the radio;
      // charge the live bundle's bytes without filling the cache.
      double wasted = 0.0;
      int64_t live = 0;
      for (const CachedAd& ad : pending_ads_) {
        if (ad.deadline > now) {
          wasted += ad.bytes;
          ++live;
        }
      }
      if (wasted > 0.0) {
        Route(now).Submit(Transfer{.request_time = now,
                                   .bytes = wasted,
                                   .direction = Direction::kDownlink,
                                   .category = TrafficCategory::kAdPrefetch});
      }
      ++fetch_failure_streak_;
      if (fetch_failure_streak_ > config_.faults.fetch_max_retries) {
        // Retry budget exhausted: abandon rather than wedge the queue. The
        // replicas expire server-side and may be rescued or violate.
        fault_stats_.bundles_abandoned += live;
        pending_ads_.clear();
        fetch_failure_streak_ = 0;
      }
      return;
    }
    fetch_failure_streak_ = 0;
  }
  double bytes = 0.0;
  int fetched = 0;
  for (const CachedAd& ad : pending_ads_) {
    if (ad.deadline <= now) {
      continue;  // Expired before it was ever downloaded: zero energy spent.
    }
    cache_.Push(ad);
    bytes += ad.bytes;
    ++fetched;
  }
  pending_ads_.clear();
  if (fetched > 0) {
    Route(now).Submit(Transfer{.request_time = now,
                           .bytes = bytes,
                           .direction = Direction::kDownlink,
                           .category = TrafficCategory::kAdPrefetch});
  }
}

void PadClient::SyncCache(double now, const std::vector<int64_t>& invalidated_ids) {
  cache_.DropExpired(now);
  // Invalidating a *fetched* replica needs a server message (bytes); pending
  // replicas are dropped server-side for free since they were never sent.
  const int64_t dropped = cache_.Invalidate(invalidated_ids);
  if (dropped > 0 && config_.invalidation_bytes > 0.0) {
    pending_invalidation_bytes_ += config_.invalidation_bytes * static_cast<double>(dropped);
  }
  if (!invalidated_ids.empty() && !pending_ads_.empty()) {
    std::erase_if(pending_ads_, [&](const CachedAd& ad) {
      return std::find(invalidated_ids.begin(), invalidated_ids.end(), ad.impression_id) !=
             invalidated_ids.end();
    });
  }
  std::erase_if(pending_ads_, [&](const CachedAd& ad) { return ad.deadline <= now; });
}

void PadClient::OnSlot(double now, Exchange& exchange, ServiceStats& stats) {
  ++stats.slots;
  ++window_slot_count_;

  std::optional<CachedAd> ad = cache_.PopForDisplay(now);
  if (!ad.has_value() && !pending_ads_.empty()) {
    // Dry cache but a bundle awaits: one bulk fetch covers this slot and the
    // rest of the burst.
    FlushControlTraffic(now);
    FlushPendingAds(now);
    ad = cache_.PopForDisplay(now);
  }
  if (ad.has_value()) {
    // Local serve: no extra radio wakeup. Billing (or excess, if a replica
    // elsewhere displayed it first) is decided by the ledger.
    exchange.ledger().RecordDisplay(ad->impression_id, now);
    ++stats.served_from_cache;
    return;
  }

  // Cache dry (under-prediction or replica starvation): behave exactly like
  // the baseline — real-time sale plus an on-demand fetch. While offline the
  // exchange is unreachable, so the slot goes unfilled (a house ad shows).
  if (faults_.enabled() && faults_.OfflineAt(client_id_, now)) {
    ++stats.unfilled;
    ++fault_stats_.offline_fetch_misses;
    return;
  }
  // Not SellAndDisplaySlot: this ledger holds live sales, and the sale's
  // brief stay in its open map can trigger a rehash that reorders the
  // digest-visible expiry sweep.
  const std::vector<SoldImpression>& sold = exchange.SellSlots(now, 1, segment_);
  if (sold.empty()) {
    ++stats.unfilled;  // No demand; a house ad shows, no traffic, no revenue.
    return;
  }
  FlushControlTraffic(now);
  Route(now).Submit(Transfer{.request_time = now,
                             .bytes = config_.ad_bytes,
                         .direction = Direction::kDownlink,
                         .category = TrafficCategory::kAdFetch});
  exchange.ledger().RecordDisplay(sold.front().impression_id, now);
  ++stats.fallback_fetches;
}

void PadClient::OnContentTransfer(const Transfer& transfer) {
  FlushControlTraffic(transfer.request_time);
  FlushPendingAds(transfer.request_time);
  Route(transfer.request_time).Submit(transfer);
}

void PadClient::FinishRadio(double horizon) {
  radio_.Finalize(horizon);
  wifi_radio_.Finalize(horizon);
}

EnergyReport PadClient::radio_report() const {
  EnergyReport combined = radio_.report();
  combined.Merge(wifi_radio_.report());
  return combined;
}

}  // namespace pad
