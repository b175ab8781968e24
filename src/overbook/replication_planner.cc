#include "src/overbook/replication_planner.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/overbook/poisson_binomial.h"

namespace pad {
namespace {

// The first min(limit, n) entries of the candidate order: descending
// probability, index ascending among ties — exactly the prefix a stable
// descending sort produces, because for NaN-free input that prefix is
// unique. Both planners read at most max_replicas entries of the order
// (default 2, against the dozens of candidates a sale draws), so a bounded
// insertion into a `limit`-entry buffer is enough: most candidates cost one
// comparison against the current last entry. Candidates arrive in index
// order, so an equal probability never displaces an entry already kept.
// Keeping (prob, index) pairs puts each comparison key next to the element
// being shifted and hands the planners the probability they read next.
void SortedCandidateOrderInto(std::span<const double> probs, size_t limit,
                              std::vector<std::pair<double, int>>& top) {
  top.clear();
  for (size_t i = 0; i < probs.size(); ++i) {
    const std::pair<double, int> value{probs[i], static_cast<int>(i)};
    size_t j = top.size();
    if (j < limit) {
      top.push_back(value);
    } else if (top[j - 1].first < value.first) {
      --j;  // Displaces the last entry.
    } else {
      continue;
    }
    while (j > 0 && top[j - 1].first < value.first) {
      top[j] = top[j - 1];
      --j;
    }
    top[j] = value;
  }
}

}  // namespace

ReplicationPlanner::ReplicationPlanner(PlannerConfig config) : config_(config) {
  PAD_CHECK(config_.sla_target > 0.0 && config_.sla_target < 1.0);
  PAD_CHECK(config_.max_replicas >= 1);
  PAD_CHECK(config_.confidence_discount > 0.0 && config_.confidence_discount <= 1.0);
}

double ReplicationPlanner::Tail(std::span<const double> probs, int k) const {
  return config_.exact_tail ? PoissonBinomialTailGeq(probs, k)
                            : PoissonBinomialTailGeqNormal(probs, k);
}

ReplicaPlan ReplicationPlanner::PlanToTarget(std::span<const double> candidate_probs,
                                             int needed) const {
  PAD_CHECK(needed >= 1);
  SortedCandidateOrderInto(candidate_probs, static_cast<size_t>(config_.max_replicas),
                           top_scratch_);

  ReplicaPlan plan;
  std::vector<double>& chosen_probs = chosen_scratch_;
  chosen_probs.clear();
  for (const auto& [prob, index] : top_scratch_) {
    const double p = std::clamp(prob * config_.confidence_discount, 0.0, 1.0);
    if (p <= 0.0) {
      break;  // Sorted order: everything after is zero too.
    }
    plan.chosen.push_back(index);
    chosen_probs.push_back(p);
    plan.success_probability = Tail(chosen_probs, needed);
    if (plan.success_probability >= config_.sla_target) {
      break;
    }
  }
  plan.expected_excess =
      std::max(0.0, PoissonBinomialMean(chosen_probs) - static_cast<double>(needed));
  return plan;
}

ReplicaPlan ReplicationPlanner::PlanWithFactor(std::span<const double> candidate_probs,
                                               int needed, double overbooking_factor) const {
  PAD_CHECK(needed >= 1);
  PAD_CHECK(overbooking_factor > 0.0);
  SortedCandidateOrderInto(candidate_probs, static_cast<size_t>(config_.max_replicas),
                           top_scratch_);
  const double target_mass = overbooking_factor * static_cast<double>(needed);

  ReplicaPlan plan;
  std::vector<double>& chosen_probs = chosen_scratch_;
  chosen_probs.clear();
  double mass = 0.0;
  for (const auto& [prob, index] : top_scratch_) {
    if (mass >= target_mass) {
      break;
    }
    const double p = std::clamp(prob * config_.confidence_discount, 0.0, 1.0);
    if (p <= 0.0) {
      break;
    }
    plan.chosen.push_back(index);
    chosen_probs.push_back(p);
    mass += p;
  }
  plan.success_probability = Tail(chosen_probs, needed);
  plan.expected_excess =
      std::max(0.0, PoissonBinomialMean(chosen_probs) - static_cast<double>(needed));
  return plan;
}

}  // namespace pad
