#include "src/auction/exchange.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace pad {

Exchange::Exchange(ExchangeConfig config, std::vector<Campaign> campaigns)
    : config_(config), pending_(std::move(campaigns)) {
  PAD_CHECK(config_.reserve_price >= 0.0);
  PAD_CHECK(config_.num_segments >= 1 && config_.num_segments <= kMaxSegments);
  by_bid_.resize(static_cast<size_t>(config_.num_segments));
  for (size_t i = 1; i < pending_.size(); ++i) {
    PAD_CHECK_MSG(pending_[i - 1].arrival_time <= pending_[i].arrival_time,
                  "campaigns must be sorted by arrival time");
  }
}

void Exchange::AdvanceTo(double now) {
  while (next_pending_ < pending_.size() && pending_[next_pending_].arrival_time <= now) {
    const Campaign& campaign = pending_[next_pending_++];
    PAD_CHECK(campaign.target_impressions > 0);
    auto [it, inserted] =
        active_.emplace(campaign.campaign_id,
                        ActiveCampaign{campaign, campaign.target_impressions, 0.0});
    PAD_CHECK_MSG(inserted, "duplicate campaign id");
    open_demand_ += campaign.target_impressions;
    ++live_campaigns_;
    bool listed = false;
    for (int s = 0; s < config_.num_segments; ++s) {
      if (campaign.Targets(s)) {
        by_bid_[static_cast<size_t>(s)].push(&it->second);
        listed = true;
      }
    }
    // A campaign whose mask misses every configured segment can never sell.
    if (!listed) {
      Retire(it->second);
    }
  }
}

void Exchange::Retire(ActiveCampaign& campaign) {
  open_demand_ -= campaign.remaining;
  campaign.remaining = 0;
  --live_campaigns_;
}

Exchange::ActiveCampaign* Exchange::PeekLive(BidHeap& heap) {
  while (!heap.empty()) {
    ActiveCampaign* top = heap.top();
    if (top->live()) {
      return top;
    }
    heap.pop();  // Stale entry: retired via another segment's sales.
  }
  return nullptr;
}

template <typename Record>
int64_t Exchange::Sell(double now, int64_t count, int segment, const BatchLimitFn& batch_limit,
                       Record&& record) {
  PAD_CHECK_MSG(now >= last_now_, "SellSlots times must be non-decreasing");
  PAD_CHECK(count >= 0);
  PAD_CHECK(segment >= 0 && segment < config_.num_segments);
  last_now_ = now;
  AdvanceTo(now);
  BidHeap& heap = by_bid_[static_cast<size_t>(segment)];

  // Campaigns that hit their batch limit sit out the rest of this call.
  std::vector<ActiveCampaign*>& benched = benched_scratch_;
  benched.clear();
  std::unordered_map<int64_t, int64_t>& bought_this_batch = bought_scratch_;
  bought_this_batch.clear();

  int64_t sold = 0;
  while (count > 0) {
    ActiveCampaign* top = PeekLive(heap);
    if (top == nullptr) {
      break;
    }
    heap.pop();
    int64_t batch_left = std::numeric_limits<int64_t>::max();
    if (batch_limit != nullptr) {
      const int64_t limit = batch_limit(top->campaign);
      if (limit > 0) {
        batch_left = limit - bought_this_batch[top->campaign.campaign_id];
        if (batch_left <= 0) {
          benched.push_back(top);
          continue;
        }
      }
    }
    // Only the runner-up matters for the clearing price with static bids, so
    // we auction a whole chunk at once: the winner keeps winning until its
    // demand is exhausted or the batch is done.
    ActiveCampaign* second = PeekLive(heap);

    Bid bids[2];
    size_t num_bids = 0;
    bids[num_bids++] = Bid{top->campaign.campaign_id, top->campaign.bid_per_impression};
    if (second != nullptr) {
      bids[num_bids++] = Bid{second->campaign.campaign_id, second->campaign.bid_per_impression};
    }
    const AuctionOutcome outcome =
        RunSecondPriceAuction(std::span<const Bid>(bids, num_bids), config_.reserve_price);
    if (!outcome.sold || outcome.winner_id != top->campaign.campaign_id) {
      // Top bid did not clear the reserve; nobody else in this segment can.
      heap.push(top);
      break;
    }

    // Chunk size: batch demand, remaining target, batch limit, and budget.
    int64_t chunk = std::min({count, top->remaining, batch_left});
    if (top->campaign.budget_usd > 0.0 && outcome.clearing_price > 0.0) {
      const double budget_left = top->campaign.budget_usd - top->committed_spend;
      const int64_t affordable = static_cast<int64_t>(budget_left / outcome.clearing_price);
      if (affordable <= 0) {
        Retire(*top);  // Cannot fund even one impression at this price.
        continue;
      }
      chunk = std::min(chunk, affordable);
    }
    for (int64_t i = 0; i < chunk; ++i) {
      SoldImpression impression;
      impression.impression_id = next_impression_id_++;
      impression.campaign_id = top->campaign.campaign_id;
      impression.price = outcome.clearing_price;
      impression.sale_time = now;
      impression.deadline = now + top->campaign.display_deadline_s;
      impression.segment_mask = top->campaign.segment_mask;
      impression.frequency_cap_per_day = top->campaign.frequency_cap_per_day;
      record(impression);
    }
    sold += chunk;
    top->remaining -= chunk;
    top->committed_spend += static_cast<double>(chunk) * outcome.clearing_price;
    open_demand_ -= chunk;
    count -= chunk;
    if (batch_limit != nullptr) {
      bought_this_batch[top->campaign.campaign_id] += chunk;
    }
    if (top->live()) {
      heap.push(top);
    } else if (top->remaining > 0) {
      // Budget exhausted before the impression target: release the rest.
      Retire(*top);
    } else {
      --live_campaigns_;
    }
  }
  for (ActiveCampaign* campaign : benched) {
    heap.push(campaign);
  }
  return sold;
}

const std::vector<SoldImpression>& Exchange::SellSlots(double now, int64_t count, int segment,
                                                       const BatchLimitFn& batch_limit) {
  std::vector<SoldImpression>& sold = sold_scratch_;
  sold.clear();
  Sell(now, count, segment, batch_limit, [this, &sold](const SoldImpression& impression) {
    ledger_.RecordSale(impression);
    sold.push_back(impression);
  });
  return sold;
}

bool Exchange::SellAndDisplaySlot(double now, int segment) {
  return Sell(now, 1, segment, nullptr, [this](const SoldImpression& impression) {
           ledger_.RecordBilledSale(impression);
         }) > 0;
}

}  // namespace pad
