// Advertiser campaigns: the demand side of the ad exchange.
//
// A campaign buys impressions at a fixed CPM bid until its impression target
// or budget is exhausted. Real exchanges see a continuous stream of such
// campaigns; GenerateCampaignStream produces a synthetic stream with Poisson
// arrivals, lognormal CPMs and heavy-tailed impression targets so the
// exchange never idles but bids are heterogeneous (second prices are
// meaningful).
#ifndef ADPAD_SRC_AUCTION_CAMPAIGN_H_
#define ADPAD_SRC_AUCTION_CAMPAIGN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"

namespace pad {

// Up to 32 audience segments; bit s set means the campaign may buy
// impressions shown to segment-s users.
inline constexpr int kMaxSegments = 32;
inline constexpr uint32_t kAllSegments = 0xffffffffu;

struct Campaign {
  int64_t campaign_id = 0;
  double arrival_time = 0.0;
  // Value per single impression, in dollars (CPM / 1000).
  double bid_per_impression = 1e-3;
  int64_t target_impressions = 1000;
  // An impression sold to this campaign must be displayed within this long
  // of its sale, or the sale is an SLA violation.
  double display_deadline_s = 1.0 * kHour;
  // Audience targeting: which user segments this campaign will pay for.
  // Default targets everyone (targeting disabled).
  uint32_t segment_mask = kAllSegments;
  // Frequency cap: at most this many displays of this campaign per user per
  // day (<= 0 means uncapped).
  int frequency_cap_per_day = 0;
  // Spend budget in dollars; the campaign retires when billed spend reaches
  // it, even if the impression target is unmet (<= 0 means unlimited).
  double budget_usd = 0.0;

  bool Targets(int segment) const {
    return (segment_mask & (1u << static_cast<uint32_t>(segment))) != 0;
  }
};

struct CampaignStreamConfig {
  double horizon_s = 2.0 * kWeek;
  // Mean campaign arrivals per day.
  double arrivals_per_day = 200.0;
  // Lognormal CPM in dollars: exp(N(mu, sigma)). Defaults give a median CPM
  // of $1 with a heavy right tail.
  double cpm_mu = 0.0;
  double cpm_sigma = 0.6;
  // Lognormal impression target.
  double target_mu = 8.0;  // median ~3k impressions
  double target_sigma = 1.0;
  double display_deadline_s = 1.0 * kHour;

  // Targeting: this fraction of campaigns target a random subset of
  // segments (the rest run-of-network). Only meaningful when the population
  // has num_segments > 1.
  int num_segments = 1;
  double targeted_fraction = 0.0;
  // Targeted campaigns pick each segment independently with this probability
  // (at least one segment always).
  double segment_selectivity = 0.25;

  // Frequency capping: fraction of campaigns carrying a per-user daily cap.
  double capped_fraction = 0.0;
  int frequency_cap_per_day = 2;

  // Budgets: fraction of campaigns with a finite dollar budget, set to this
  // multiple of their nominal value (bid x target / 1000).
  double budgeted_fraction = 0.0;
  double budget_value_multiple = 0.5;

  uint64_t seed = 7;
};

// The stream one campaign at a time, in arrival order, ids dense from
// `first_id`: the one definition of its draw sequence. A consumer that keeps
// only part of each campaign (the serving book) reads it here instead of
// holding every record.
class CampaignStream {
 public:
  explicit CampaignStream(const CampaignStreamConfig& config, int64_t first_id = 1);

  // The next campaign to arrive before the horizon; nullopt once none does.
  std::optional<Campaign> Next();

 private:
  CampaignStreamConfig config_;
  Rng rng_;
  double rate_per_s_;
  double t_ = 0.0;
  int64_t next_id_;
};

// Campaigns sorted by arrival time, ids dense from `first_id`.
std::vector<Campaign> GenerateCampaignStream(const CampaignStreamConfig& config,
                                             int64_t first_id = 1);

}  // namespace pad

#endif  // ADPAD_SRC_AUCTION_CAMPAIGN_H_
