#include "src/auction/ledger.h"

#include <queue>
#include <vector>

#include "src/common/check.h"

namespace pad {

double LedgerTotals::SlaViolationRate() const {
  if (sold == 0) {
    return 0.0;
  }
  return static_cast<double>(violated) / static_cast<double>(sold);
}

double LedgerTotals::RevenueLossRate() const {
  if (displays == 0) {
    return 0.0;
  }
  return static_cast<double>(excess_displays) / static_cast<double>(displays);
}

void LedgerTotals::Merge(const LedgerTotals& other) {
  sold += other.sold;
  billed += other.billed;
  violated += other.violated;
  excess_displays += other.excess_displays;
  displays += other.displays;
  billed_revenue += other.billed_revenue;
  violated_value += other.violated_value;
}

void RevenueLedger::RecordSale(const SoldImpression& impression) {
  PAD_CHECK(impression.deadline >= impression.sale_time);
  PAD_CHECK(impression.price >= 0.0);
  const auto [it, inserted] = open_.emplace(
      impression.impression_id,
      Open{impression.campaign_id, impression.price, impression.deadline});
  PAD_CHECK_MSG(inserted, "duplicate impression id in RecordSale");
  (void)it;
  ++totals_.sold;
  if (observer_ != nullptr) {
    observer_->OnSale(impression.sale_time, impression.impression_id, impression.campaign_id,
                      impression.price);
  }
}

bool RevenueLedger::RecordDisplay(int64_t impression_id, double time) {
  const auto it = open_.find(impression_id);
  if (it == open_.end()) {
    // Already billed (replica display), already violated, or unknown:
    // the slot is consumed either way.
    ++totals_.excess_displays;
    ++totals_.displays;
    if (observer_ != nullptr) {
      observer_->OnExcessDisplay(time, impression_id);
    }
    return false;
  }
  if (time > it->second.deadline) {
    // Too late to bill; the sale will be (or was) marked violated by
    // ExpireDeadlines, and this display is wasted inventory.
    ++totals_.excess_displays;
    ++totals_.displays;
    if (observer_ != nullptr) {
      observer_->OnExcessDisplay(time, impression_id);
    }
    return false;
  }
  ++totals_.billed;
  ++totals_.displays;
  totals_.billed_revenue += it->second.price;
  recently_billed_.push_back(impression_id);
  if (observer_ != nullptr) {
    observer_->OnBilledDisplay(time, impression_id, it->second.campaign_id, it->second.price);
  }
  open_.erase(it);
  return true;
}

void RevenueLedger::RecordBilledSale(const SoldImpression& impression) {
  PAD_CHECK(impression.deadline >= impression.sale_time);
  PAD_CHECK(impression.price >= 0.0);
  ++totals_.sold;
  ++totals_.billed;
  ++totals_.displays;
  totals_.billed_revenue += impression.price;
  if (observer_ != nullptr) {
    observer_->OnSale(impression.sale_time, impression.impression_id, impression.campaign_id,
                      impression.price);
    observer_->OnBilledDisplay(impression.sale_time, impression.impression_id,
                               impression.campaign_id, impression.price);
  }
}

std::vector<int64_t> RevenueLedger::TakeRecentlyBilled() {
  std::vector<int64_t> billed;
  billed.swap(recently_billed_);
  return billed;
}

void RevenueLedger::RecordUnsoldDisplay() {
  ++totals_.excess_displays;
  ++totals_.displays;
}

void RevenueLedger::ExpireDeadlines(double now) {
  // Linear sweep over every open impression, once per sale epoch: 3-4 % of a
  // 2000-user market's profile. A deadline heap would visit only the expired
  // ones, but it would change the order in which kViolation events are
  // emitted and `violated_value` is summed, and both are digest-visible; so
  // the sweep keeps the map's iteration order until the ledger sums money
  // order-free.
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.deadline <= now) {
      ++totals_.violated;
      totals_.violated_value += it->second.price;
      if (observer_ != nullptr) {
        observer_->OnViolation(it->second.deadline, it->first, it->second.campaign_id,
                               it->second.price);
      }
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace pad
