// The ad exchange: matches a stream of advertiser campaigns to client ad
// slots through per-impression second-price auctions.
//
// Baseline mode sells one slot at display time (SellAndDisplaySlot). PAD
// mode sells a *batch* of predicted future slots at the start of each sale
// epoch (SellSlots) — the same auction loop, larger count, before the slots
// exist. The exchange itself is oblivious to prefetching; that separation is
// the paper's "minimal changes to the existing advertising architecture"
// claim.
//
// Targeting: every slot belongs to a user in an audience segment, and only
// campaigns whose segment_mask covers that segment may bid. Campaigns with
// finite budgets retire when their committed spend reaches the budget.
#ifndef ADPAD_SRC_AUCTION_EXCHANGE_H_
#define ADPAD_SRC_AUCTION_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/auction/auction.h"
#include "src/auction/campaign.h"
#include "src/auction/ledger.h"

namespace pad {

struct ExchangeConfig {
  // Floor price per impression, dollars ($0.10 CPM default).
  double reserve_price = 0.1 / 1000.0;
  // Audience segments slots may carry (1 = targeting disabled).
  int num_segments = 1;
};

class Exchange {
 public:
  // `campaigns` must be sorted by arrival_time.
  Exchange(ExchangeConfig config, std::vector<Campaign> campaigns);

  // Movable (heaps hold pointers into node-stable map storage, which moves
  // preserve) but not copyable (a copy's heaps would alias the source).
  Exchange(Exchange&&) = default;
  Exchange& operator=(Exchange&&) = default;
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  // Admits campaigns with arrival_time <= now. Called implicitly by SellSlots.
  void AdvanceTo(double now);

  // Per-campaign purchase bound for one SellSlots batch; <= 0 means
  // unlimited. The PAD server uses this to keep frequency-capped campaigns
  // from buying more impressions than the population can legally display.
  using BatchLimitFn = std::function<int64_t(const Campaign&)>;

  // Auctions `count` impressions of segment-`segment` inventory at time
  // `now`. Returns the impressions that actually sold (fewer than `count`
  // when eligible demand runs out or every remaining bidder hit its batch
  // limit). Sales are recorded in the ledger; displays and deadline expiry
  // are reported back via ledger().
  //
  // The returned reference aliases member scratch reused by the next
  // SellSlots call (the PAD client's fallback auctions one slot per call,
  // where a returned-by-value vector would be one heap allocation per
  // display). Copy it if it must survive the next sale.
  const std::vector<SoldImpression>& SellSlots(double now, int64_t count, int segment = 0,
                                               const BatchLimitFn& batch_limit = nullptr);

  // The baseline's real-time path: auctions one slot of segment-`segment`
  // inventory at `now` and displays it on the spot. The ledger records the
  // sale and its billed display in one call, so nothing stays open and no
  // id is queued for invalidation. Same auction, counts and revenue order as
  // SellSlots(now, 1, segment) followed by ledger().RecordDisplay(id, now).
  // Returns false when the slot did not sell.
  bool SellAndDisplaySlot(double now, int segment);

  RevenueLedger& ledger() { return ledger_; }
  const RevenueLedger& ledger() const { return ledger_; }

  // Campaigns currently eligible to bid on some segment.
  int64_t active_campaigns() const { return live_campaigns_; }
  // Total impressions the active campaigns still want (budget permitting).
  int64_t open_demand() const { return open_demand_; }

 private:
  struct ActiveCampaign {
    Campaign campaign;
    int64_t remaining = 0;
    double committed_spend = 0.0;

    bool live() const {
      if (remaining <= 0) {
        return false;
      }
      return campaign.budget_usd <= 0.0 || committed_spend < campaign.budget_usd;
    }
  };
  struct BidOrder {
    // Max-heap by bid, then FIFO by campaign id for determinism.
    bool operator()(const ActiveCampaign* a, const ActiveCampaign* b) const {
      if (a->campaign.bid_per_impression != b->campaign.bid_per_impression) {
        return a->campaign.bid_per_impression < b->campaign.bid_per_impression;
      }
      return a->campaign.campaign_id > b->campaign.campaign_id;
    }
  };
  using BidHeap = std::priority_queue<ActiveCampaign*, std::vector<ActiveCampaign*>, BidOrder>;

  // Pops stale (retired) entries off the heap's top; returns the live top or
  // nullptr. A campaign targeting k segments has one entry per segment heap,
  // so entries can outlive the campaign's demand.
  ActiveCampaign* PeekLive(BidHeap& heap);
  // Marks a campaign's demand consumed and updates the live counters.
  void Retire(ActiveCampaign& campaign);
  // The auction loop both sale calls share: sells up to `count` impressions
  // and hands each one to `record` in sale order. Returns how many sold.
  template <typename Record>
  int64_t Sell(double now, int64_t count, int segment, const BatchLimitFn& batch_limit,
               Record&& record);

  ExchangeConfig config_;
  std::vector<Campaign> pending_;  // Sorted by arrival; consumed from the front.
  size_t next_pending_ = 0;
  // Node-stable storage: heap entries point into this map.
  std::unordered_map<int64_t, ActiveCampaign> active_;
  std::vector<BidHeap> by_bid_;  // One heap per segment.
  RevenueLedger ledger_;
  // SellSlots scratch, reused across calls (cleared at entry, buckets and
  // capacity retained).
  std::vector<SoldImpression> sold_scratch_;
  std::vector<ActiveCampaign*> benched_scratch_;
  std::unordered_map<int64_t, int64_t> bought_scratch_;
  int64_t next_impression_id_ = 1;
  int64_t open_demand_ = 0;
  int64_t live_campaigns_ = 0;
  double last_now_ = 0.0;
};

}  // namespace pad

#endif  // ADPAD_SRC_AUCTION_EXCHANGE_H_
