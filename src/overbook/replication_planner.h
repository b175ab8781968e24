// Replication planner: decides which clients an ad is pushed to.
//
// The tension it manages is the paper's central tradeoff. Too few replicas
// and the ad may miss its display deadline (SLA violation — the advertiser
// paid for an impression that never ran). Too many and several replicas get
// displayed but only one can be billed (revenue loss — the extra displays
// burned sellable inventory).
//
// Two policies are provided:
//
//   * PlanToTarget — adds candidate clients in descending display
//     probability until P(at least `needed` displays before deadline) >=
//     sla_target under the Poisson-binomial model. This is the adaptive
//     policy: the replica count automatically grows when candidates are
//     unreliable and shrinks when one client is near-certain.
//
//   * PlanWithFactor — adds clients until the expected number of displays
//     (sum of probabilities) reaches overbooking_factor * needed. This is
//     the fixed-margin policy the E6 sweep exposes, mirroring how the paper
//     presents overbooking as a tunable factor.
#ifndef ADPAD_SRC_OVERBOOK_REPLICATION_PLANNER_H_
#define ADPAD_SRC_OVERBOOK_REPLICATION_PLANNER_H_

#include <span>
#include <utility>
#include <vector>

#include "src/overbook/display_model.h"

namespace pad {

struct ReplicaPlan {
  // Indices into the candidate span, in the order they were chosen.
  std::vector<int> chosen;
  // P(at least `needed` displays before deadline) under the model.
  double success_probability = 0.0;
  // Expected displays minus needed (>= 0 only in expectation; the realized
  // excess is what the ledger measures).
  double expected_excess = 0.0;

  int replicas() const { return static_cast<int>(chosen.size()); }
};

struct PlannerConfig {
  double sla_target = 0.99;
  int max_replicas = 32;
  // Use the exact Poisson-binomial tail (true) or the normal approximation
  // (false). Exact is the default; the approximation exists for the E12
  // speed ablation and very large replica sets.
  bool exact_tail = true;
  // Multiplied into every candidate probability before planning; < 1 makes
  // the planner distrust the display model (more replicas).
  double confidence_discount = 1.0;
};

class ReplicationPlanner {
 public:
  explicit ReplicationPlanner(PlannerConfig config);

  // Candidates' display-by-deadline probabilities. Both policies pick
  // greedily in descending probability (index ascending among ties) and
  // consider only the first max_replicas candidates of that order;
  // `needed` >= 1.
  ReplicaPlan PlanToTarget(std::span<const double> candidate_probs, int needed) const;
  ReplicaPlan PlanWithFactor(std::span<const double> candidate_probs, int needed,
                             double overbooking_factor) const;

  const PlannerConfig& config() const { return config_; }

 private:
  double Tail(std::span<const double> probs, int k) const;

  PlannerConfig config_;
  // Per-call scratch (the top max_replicas candidates as (probability,
  // index), discounted chosen probabilities), reused across plans so the
  // per-impression hot path stops allocating. Makes a planner
  // single-threaded; each market/server owns its own.
  mutable std::vector<std::pair<double, int>> top_scratch_;
  mutable std::vector<double> chosen_scratch_;
};

}  // namespace pad

#endif  // ADPAD_SRC_OVERBOOK_REPLICATION_PLANNER_H_
