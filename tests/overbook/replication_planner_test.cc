#include "src/overbook/replication_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/rng.h"

#include "src/overbook/poisson_binomial.h"

namespace pad {
namespace {

PlannerConfig Config(double sla = 0.95, int max_replicas = 16, bool exact = true,
                     double discount = 1.0) {
  return PlannerConfig{sla, max_replicas, exact, discount};
}

TEST(PlanToTargetTest, SingleConfidentCandidateSuffices) {
  ReplicationPlanner planner(Config(0.95));
  const std::vector<double> probs = {0.99, 0.9, 0.8};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  ASSERT_EQ(plan.replicas(), 1);
  EXPECT_EQ(plan.chosen[0], 0);
  EXPECT_NEAR(plan.success_probability, 0.99, 1e-12);
}

TEST(PlanToTargetTest, AddsReplicasUntilTargetMet) {
  ReplicationPlanner planner(Config(0.95));
  const std::vector<double> probs = {0.6, 0.6, 0.6, 0.6, 0.6};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  // 1 - 0.4^k >= 0.95 -> k >= 4 (1 - 0.4^3 = 0.936, 1 - 0.4^4 = 0.974).
  EXPECT_EQ(plan.replicas(), 4);
  EXPECT_NEAR(plan.success_probability, 1.0 - std::pow(0.4, 4), 1e-12);
}

TEST(PlanToTargetTest, GreedyPicksHighestProbabilitiesFirst) {
  ReplicationPlanner planner(Config(0.99));
  const std::vector<double> probs = {0.3, 0.9, 0.5, 0.8};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  ASSERT_GE(plan.replicas(), 2);
  EXPECT_EQ(plan.chosen[0], 1);  // 0.9 first.
  EXPECT_EQ(plan.chosen[1], 3);  // then 0.8.
}

TEST(PlanToTargetTest, MaxReplicasCaps) {
  ReplicationPlanner planner(Config(0.999, /*max_replicas=*/2));
  const std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  EXPECT_EQ(plan.replicas(), 2);
  EXPECT_LT(plan.success_probability, 0.999);
}

TEST(PlanToTargetTest, NeededGreaterThanOne) {
  ReplicationPlanner planner(Config(0.9));
  const std::vector<double> probs = {0.9, 0.9, 0.9, 0.9, 0.9, 0.9};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 3);
  EXPECT_GE(plan.replicas(), 4);  // 3 nines alone give only 0.729.
  EXPECT_GE(plan.success_probability, 0.9);
}

TEST(PlanToTargetTest, ZeroProbCandidatesNeverChosen) {
  ReplicationPlanner planner(Config(0.9));
  const std::vector<double> probs = {0.0, 0.0, 0.7, 0.0};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  ASSERT_EQ(plan.replicas(), 1);
  EXPECT_EQ(plan.chosen[0], 2);
}

TEST(PlanToTargetTest, AllZeroGivesEmptyPlan) {
  ReplicationPlanner planner(Config(0.9));
  const std::vector<double> probs = {0.0, 0.0};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  EXPECT_EQ(plan.replicas(), 0);
  EXPECT_DOUBLE_EQ(plan.success_probability, 0.0);
}

TEST(PlanToTargetTest, ExpectedExcessComputed) {
  ReplicationPlanner planner(Config(0.99));
  const std::vector<double> probs = {0.9, 0.9};
  const ReplicaPlan plan = planner.PlanToTarget(probs, 1);
  ASSERT_EQ(plan.replicas(), 2);  // 0.9 < 0.99, two needed.
  EXPECT_NEAR(plan.expected_excess, 1.8 - 1.0, 1e-12);
}

TEST(PlanToTargetTest, ConfidenceDiscountForcesMoreReplicas) {
  const std::vector<double> probs = {0.95, 0.95, 0.95};
  ReplicationPlanner trusting(Config(0.9, 16, true, 1.0));
  ReplicationPlanner skeptical(Config(0.9, 16, true, 0.6));
  EXPECT_EQ(trusting.PlanToTarget(probs, 1).replicas(), 1);
  EXPECT_GT(skeptical.PlanToTarget(probs, 1).replicas(), 1);
}

TEST(PlanWithFactorTest, StopsAtMassTarget) {
  ReplicationPlanner planner(Config());
  const std::vector<double> probs = {0.8, 0.8, 0.8, 0.8};
  // Factor 0.5: one replica's 0.8 mass already exceeds it.
  EXPECT_EQ(planner.PlanWithFactor(probs, 1, 0.5).replicas(), 1);
  // Factor 1.5: 0.8 < 1.5 <= 1.6 -> two replicas.
  EXPECT_EQ(planner.PlanWithFactor(probs, 1, 1.5).replicas(), 2);
  // Factor 3.0: needs four (3.2 >= 3.0).
  EXPECT_EQ(planner.PlanWithFactor(probs, 1, 3.0).replicas(), 4);
}

TEST(PlanWithFactorTest, MonotoneInFactor) {
  ReplicationPlanner planner(Config());
  const std::vector<double> probs = {0.5, 0.6, 0.7, 0.4, 0.3, 0.8};
  int prev = 0;
  for (double factor : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
    const int replicas = planner.PlanWithFactor(probs, 1, factor).replicas();
    EXPECT_GE(replicas, prev);
    prev = replicas;
  }
}

TEST(PlanWithFactorTest, SuccessProbabilityReported) {
  ReplicationPlanner planner(Config());
  const std::vector<double> probs = {0.7, 0.7};
  const ReplicaPlan plan = planner.PlanWithFactor(probs, 1, 1.4);
  EXPECT_EQ(plan.replicas(), 2);
  EXPECT_NEAR(plan.success_probability, 1.0 - 0.09, 1e-12);
}

TEST(PlannerTest, NormalApproxModeRuns) {
  ReplicationPlanner planner(Config(0.95, 40, /*exact=*/false));
  std::vector<double> probs(40, 0.3);
  const ReplicaPlan plan = planner.PlanToTarget(probs, 5);
  EXPECT_GT(plan.replicas(), 5);
  EXPECT_GE(plan.success_probability, 0.95);
}

TEST(PlannerTest, ExactAndApproxAgreeRoughly) {
  std::vector<double> probs;
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    probs.push_back(rng.Uniform(0.3, 0.9));
  }
  ReplicationPlanner exact(Config(0.95, 32, true));
  ReplicationPlanner approx(Config(0.95, 32, false));
  const int exact_replicas = exact.PlanToTarget(probs, 4).replicas();
  const int approx_replicas = approx.PlanToTarget(probs, 4).replicas();
  EXPECT_NEAR(exact_replicas, approx_replicas, 2);
}

// The planners as specified: stable-sort every candidate by descending
// probability (index ascending among ties), then walk that order greedily.
// `overbooking_factor` <= 0 selects PlanToTarget.
ReplicaPlan ReferencePlan(const PlannerConfig& config, std::span<const double> probs,
                          int needed, double overbooking_factor) {
  std::vector<int> order(probs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return probs[static_cast<size_t>(a)] > probs[static_cast<size_t>(b)];
  });
  const auto tail = [&config](std::span<const double> chosen, int k) {
    return config.exact_tail ? PoissonBinomialTailGeq(chosen, k)
                             : PoissonBinomialTailGeqNormal(chosen, k);
  };
  const bool fixed_factor = overbooking_factor > 0.0;
  const double target_mass = overbooking_factor * static_cast<double>(needed);
  ReplicaPlan plan;
  std::vector<double> chosen;
  double mass = 0.0;
  for (int index : order) {
    if (plan.replicas() >= config.max_replicas || (fixed_factor && mass >= target_mass)) {
      break;
    }
    const double p = std::clamp(probs[static_cast<size_t>(index)] * config.confidence_discount,
                                0.0, 1.0);
    if (p <= 0.0) {
      break;
    }
    plan.chosen.push_back(index);
    chosen.push_back(p);
    mass += p;
    if (!fixed_factor) {
      plan.success_probability = tail(chosen, needed);
      if (plan.success_probability >= config.sla_target) {
        break;
      }
    }
  }
  if (fixed_factor) {
    plan.success_probability = tail(chosen, needed);
  }
  plan.expected_excess =
      std::max(0.0, PoissonBinomialMean(chosen) - static_cast<double>(needed));
  return plan;
}

// Candidate probabilities dense in exact ties, zeros of both signs, and the
// ends of [0, 1], with some uniform draws in between.
std::vector<double> TieHeavyCandidates(Rng& rng) {
  static constexpr double kPool[] = {0.0, -0.0, 0.05, 0.3, 0.5, 0.75, 0.95, 1.0};
  std::vector<double> probs(static_cast<size_t>(rng.UniformInt(0, 64)));
  for (double& p : probs) {
    p = rng.Bernoulli(0.7) ? kPool[rng.UniformInt(0, std::size(kPool) - 1)] : rng.NextDouble();
  }
  return probs;
}

// The planners rank only the first max_replicas candidates; every plan must
// still equal, bit for bit, the plan built from the fully sorted order.
TEST(PlannerTest, TopKMatchesFullStableSortReference) {
  Rng rng(20130415);
  int64_t plans = 0;
  int64_t deep_plans = 0;  // Plans that used more than two replicas.
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<double> probs = TieHeavyCandidates(rng);
    const int needed = trial % 3 == 0 ? 2 : 1;
    for (const int max_replicas : {1, 2, 3, 8, 64}) {
      const PlannerConfig config = Config(trial % 2 == 0 ? 0.99 : 0.999, max_replicas,
                                          /*exact=*/trial % 5 != 0,
                                          /*discount=*/trial % 4 == 0 ? 0.8 : 1.0);
      const ReplicationPlanner planner(config);
      for (const double factor : {-1.0, 1.5}) {
        SCOPED_TRACE(testing::Message() << "trial=" << trial << " n=" << probs.size()
                                        << " max_replicas=" << max_replicas
                                        << " factor=" << factor);
        const ReplicaPlan got = factor > 0.0 ? planner.PlanWithFactor(probs, needed, factor)
                                             : planner.PlanToTarget(probs, needed);
        const ReplicaPlan want = ReferencePlan(config, probs, needed, factor);
        EXPECT_EQ(got.chosen, want.chosen);
        EXPECT_EQ(std::bit_cast<uint64_t>(got.success_probability),
                  std::bit_cast<uint64_t>(want.success_probability));
        EXPECT_EQ(std::bit_cast<uint64_t>(got.expected_excess),
                  std::bit_cast<uint64_t>(want.expected_excess));
        ++plans;
        deep_plans += got.replicas() > 2 ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(plans, 400 * 5 * 2);
  EXPECT_GT(deep_plans, 100);  // The sweep reaches past the default prefix.
}

TEST(PlannerDeathTest, InvalidConfigAborts) {
  EXPECT_DEATH(ReplicationPlanner planner(Config(0.0)), "sla_target");
  EXPECT_DEATH(ReplicationPlanner planner(Config(1.0)), "sla_target");
  EXPECT_DEATH(ReplicationPlanner planner(Config(0.9, 0)), "max_replicas");
}

TEST(PlannerDeathTest, NeededMustBePositive) {
  ReplicationPlanner planner(Config());
  const std::vector<double> probs = {0.5};
  EXPECT_DEATH(planner.PlanToTarget(probs, 0), "needed");
}

}  // namespace
}  // namespace pad
