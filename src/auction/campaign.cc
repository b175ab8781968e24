#include "src/auction/campaign.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pad {

CampaignStream::CampaignStream(const CampaignStreamConfig& config, int64_t first_id)
    : config_(config),
      rng_(config.seed),
      rate_per_s_(config.arrivals_per_day / kDay),
      next_id_(first_id) {
  PAD_CHECK(config.horizon_s > 0.0);
  PAD_CHECK(config.arrivals_per_day > 0.0);
}

std::optional<Campaign> CampaignStream::Next() {
  t_ += rng_.Exponential(rate_per_s_);
  if (t_ >= config_.horizon_s) {
    return std::nullopt;
  }
  Campaign campaign;
  campaign.campaign_id = next_id_++;
  campaign.arrival_time = t_;
  const double cpm = rng_.LogNormal(config_.cpm_mu, config_.cpm_sigma);
  campaign.bid_per_impression = cpm / 1000.0;
  campaign.target_impressions =
      std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                               rng_.LogNormal(config_.target_mu, config_.target_sigma))));
  campaign.display_deadline_s = config_.display_deadline_s;
  if (config_.num_segments > 1 && rng_.Bernoulli(config_.targeted_fraction)) {
    PAD_CHECK(config_.num_segments <= kMaxSegments);
    uint32_t mask = 0;
    for (int s = 0; s < config_.num_segments; ++s) {
      if (rng_.Bernoulli(config_.segment_selectivity)) {
        mask |= 1u << static_cast<uint32_t>(s);
      }
    }
    if (mask == 0) {  // Target at least one segment.
      mask = 1u << static_cast<uint32_t>(rng_.UniformInt(0, config_.num_segments - 1));
    }
    campaign.segment_mask = mask;
  }
  if (rng_.Bernoulli(config_.capped_fraction)) {
    campaign.frequency_cap_per_day = config_.frequency_cap_per_day;
  }
  if (rng_.Bernoulli(config_.budgeted_fraction)) {
    campaign.budget_usd = config_.budget_value_multiple * campaign.bid_per_impression *
                          static_cast<double>(campaign.target_impressions);
  }
  return campaign;
}

std::vector<Campaign> GenerateCampaignStream(const CampaignStreamConfig& config,
                                             int64_t first_id) {
  std::vector<Campaign> campaigns;
  CampaignStream stream(config, first_id);
  while (const std::optional<Campaign> campaign = stream.Next()) {
    campaigns.push_back(*campaign);
  }
  return campaigns;
}

}  // namespace pad
