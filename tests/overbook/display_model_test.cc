#include "src/overbook/display_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/overbook/poisson_binomial.h"

namespace pad {
namespace {

ClientSlotEstimate Estimate(double rate_per_hour, int queue, double var_per_hour = -1.0) {
  ClientSlotEstimate estimate;
  estimate.slots_per_s = rate_per_hour / 3600.0;
  estimate.var_per_s = (var_per_hour < 0.0 ? rate_per_hour : var_per_hour) / 3600.0;
  estimate.queue_ahead = queue;
  return estimate;
}

TEST(DisplayModelTest, PoissonCaseMatchesTail) {
  // Variance == mean: plain Poisson. Rate 2/hour, 1 h deadline, empty queue.
  const double p = DisplayProbability(Estimate(2.0, 0), 3600.0);
  EXPECT_NEAR(p, 1.0 - std::exp(-2.0), 1e-9);
}

TEST(DisplayModelTest, ZeroRateNeverDisplays) {
  EXPECT_DOUBLE_EQ(DisplayProbability(Estimate(0.0, 0), 3600.0), 0.0);
}

TEST(DisplayModelTest, ZeroDeadlineNeverDisplays) {
  EXPECT_DOUBLE_EQ(DisplayProbability(Estimate(10.0, 0), 0.0), 0.0);
}

TEST(DisplayModelTest, MonotoneInRate) {
  double prev = 0.0;
  for (double rate = 0.5; rate <= 20.0; rate += 0.5) {
    const double p = DisplayProbability(Estimate(rate, 2), 3600.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(DisplayModelTest, MonotoneDecreasingInQueue) {
  double prev = 1.0;
  for (int queue = 0; queue <= 20; ++queue) {
    const double p = DisplayProbability(Estimate(5.0, queue), 3600.0);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(DisplayModelTest, MonotoneInDeadline) {
  double prev = 0.0;
  for (double deadline = 600.0; deadline <= 4.0 * 3600.0; deadline += 600.0) {
    const double p = DisplayProbability(Estimate(3.0, 1), deadline);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(DisplayModelTest, OverdispersionLowersHeadProbability) {
  // Bursty slots (variance >> mean) make "at least one slot soon" less
  // likely than Poisson predicts — the key calibration fact.
  const double poisson = DisplayProbability(Estimate(2.0, 0, 2.0), 3600.0);
  const double bursty = DisplayProbability(Estimate(2.0, 0, 12.0), 3600.0);
  EXPECT_LT(bursty, poisson);
}

TEST(DisplayModelTest, DiscountScalesProbability) {
  const ClientSlotEstimate estimate = Estimate(5.0, 0);
  const double full = DisplayProbability(estimate, 3600.0);
  EXPECT_NEAR(DiscountedDisplayProbability(estimate, 3600.0, 0.5), full * 0.5, 1e-12);
  EXPECT_NEAR(DiscountedDisplayProbability(estimate, 3600.0, 1.0), full, 1e-12);
}

TEST(ConfidentCapacityTest, ZeroRateZeroCapacity) {
  EXPECT_EQ(ConfidentCapacity(Estimate(0.0, 0), 3600.0, 0.9), 0);
}

TEST(ConfidentCapacityTest, CapacityConsistentWithTail) {
  const ClientSlotEstimate estimate = Estimate(10.0, 0);
  for (double confidence : {0.5, 0.8, 0.95}) {
    const int capacity = ConfidentCapacity(estimate, 3600.0, confidence);
    // P(X >= capacity) >= confidence, P(X >= capacity + 1) < confidence.
    EXPECT_GE(OverdispersedTailGeq(10.0, 10.0, capacity), confidence);
    EXPECT_LT(OverdispersedTailGeq(10.0, 10.0, capacity + 1), confidence);
  }
}

TEST(ConfidentCapacityTest, MonotoneInConfidence) {
  const ClientSlotEstimate estimate = Estimate(8.0, 0);
  int prev = 1000;
  for (double confidence : {0.3, 0.5, 0.7, 0.9, 0.99}) {
    const int capacity = ConfidentCapacity(estimate, 3600.0, confidence);
    EXPECT_LE(capacity, prev);
    prev = capacity;
  }
}

TEST(ConfidentCapacityTest, GrowsWithDeadline) {
  const ClientSlotEstimate estimate = Estimate(6.0, 0);
  EXPECT_LT(ConfidentCapacity(estimate, 1800.0, 0.5), ConfidentCapacity(estimate, 7200.0, 0.5));
}

TEST(ConfidentCapacityTest, BurstinessShrinksCapacity) {
  EXPECT_LE(ConfidentCapacity(Estimate(10.0, 0, 50.0), 3600.0, 0.8),
            ConfidentCapacity(Estimate(10.0, 0, 10.0), 3600.0, 0.8));
}

// The capacity computation before the one-pass walk, kept verbatim as the
// reference: a binary search whose every probe re-sums the tail from zero.
namespace reference {

double PoissonTailGeq(double lambda, int k) {
  PAD_CHECK(lambda >= 0.0);
  if (k <= 0) {
    return 1.0;
  }
  if (lambda == 0.0) {
    return 0.0;
  }
  double pmf = std::exp(-lambda);
  double below = 0.0;
  for (int i = 0; i < k; ++i) {
    below += pmf;
    pmf *= lambda / static_cast<double>(i + 1);
  }
  return std::clamp(1.0 - below, 0.0, 1.0);
}

double OverdispersedTailGeq(double mean, double variance, int k) {
  PAD_CHECK(mean >= 0.0);
  PAD_CHECK(variance >= 0.0);
  if (k <= 0) {
    return 1.0;
  }
  if (mean == 0.0) {
    return 0.0;
  }
  if (variance < 1e-9) {
    // Deterministic count.
    return mean >= static_cast<double>(k) ? 1.0 : 0.0;
  }
  if (variance <= mean) {
    return PoissonTailGeq(mean, k);
  }
  // Negative binomial parameterized by mean m and variance v > m:
  //   p = m / v,  r = m^2 / (v - m),  pmf(0) = p^r,
  //   pmf(i+1) = pmf(i) * (i + r) / (i + 1) * (1 - p).
  const double p = mean / variance;
  const double r = mean * mean / (variance - mean);
  double pmf = std::pow(p, r);
  double below = 0.0;
  for (int i = 0; i < k; ++i) {
    below += pmf;
    pmf *= (static_cast<double>(i) + r) / (static_cast<double>(i) + 1.0) * (1.0 - p);
  }
  return std::clamp(1.0 - below, 0.0, 1.0);
}

int ConfidentCapacity(const ClientSlotEstimate& estimate, double deadline_s, double confidence) {
  PAD_CHECK(confidence > 0.0 && confidence < 1.0);
  const double mean = estimate.slots_per_s * deadline_s;
  const double variance = estimate.var_per_s * deadline_s;
  // P(X >= q) is decreasing in q, so binary-search the largest q that still
  // clears the bar. A linear walk is O(capacity^2) in tail evaluations and
  // melts down when a noisy predictor reports a huge mean.
  int lo = 0;  // Invariant: P(X >= lo) >= confidence (trivially, P >= 0).
  int hi = static_cast<int>(mean + 10.0 * std::sqrt(variance + 1.0)) + 2;
  while (OverdispersedTailGeq(mean, variance, hi) >= confidence) {
    hi *= 2;  // Defensive: the bound above should already fail.
  }
  while (lo + 1 < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (OverdispersedTailGeq(mean, variance, mid) >= confidence) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace reference

// The first term of the count's pmf as the model computes it: e^-m for the
// Poisson case, p^r for the negative binomial. The reference search never
// returns where it is 0.
double FirstTerm(double mean, double variance) {
  if (variance <= mean) {
    return std::exp(-mean);
  }
  return std::pow(mean / variance, mean * mean / (variance - mean));
}

// A (mean, variance, confidence) draw: means log-uniform over [1e-4, 3000],
// variances at, below or up to 1000x above the mean (and a few near zero),
// any confidence in (0, 1) and the configured defaults.
struct Draw {
  double mean;
  double variance;
  double confidence;
};

Draw RandomDraw(Rng& rng) {
  Draw draw;
  draw.mean = std::exp(rng.Uniform(std::log(1e-4), std::log(3000.0)));
  const double shape = rng.NextDouble();
  if (shape < 0.15) {
    draw.variance = draw.mean;
  } else if (shape < 0.25) {
    draw.variance = draw.mean * rng.Uniform(0.05, 1.0);
  } else if (shape < 0.27) {
    draw.variance = rng.Uniform(0.0, 2e-9);
  } else {
    draw.variance = draw.mean * std::exp(rng.Uniform(0.0, std::log(1000.0)));
  }
  const double pick = rng.NextDouble();
  draw.confidence = pick < 0.1 ? 0.3 : pick < 0.2 ? 0.9 : rng.Uniform(1e-6, 1.0);
  return draw;
}

ClientSlotEstimate PerSecond(double mean, double variance) {
  ClientSlotEstimate estimate;
  estimate.slots_per_s = mean;
  estimate.var_per_s = variance;
  return estimate;
}

// Whether the reference search returns: its tail falls below the
// confidence at its first bound or within ten doublings of it. A first term
// of 0 reads 1 at every count, and a subnormal one can leave the sum short
// of 1 - confidence for good; the search then doubles until int overflows.
bool SearchReturns(double mean, double variance, double confidence) {
  if (variance >= 1e-9 && FirstTerm(mean, variance) == 0.0) {
    return false;
  }
  const int hi = static_cast<int>(mean + 10.0 * std::sqrt(variance + 1.0)) + 2;
  return reference::OverdispersedTailGeq(mean, variance, hi) < confidence ||
         reference::OverdispersedTailGeq(mean, variance, hi * 1024) < confidence;
}

// The walk returns exactly the search's count wherever the search returns:
// each partial sum is formed by the same additions in the same order, and
// adding a term >= 0 cannot lower a rounded sum, so the first count whose
// tail drops below the confidence is the largest one the search keeps.
TEST(ConfidentCapacityTest, WalkEqualsTheBinarySearch) {
  Rng rng(20261019);
  int compared = 0;
  int negative_binomial = 0;
  int doubled = 0;
  while (compared < 120000) {
    const Draw draw = RandomDraw(rng);
    if (!SearchReturns(draw.mean, draw.variance, draw.confidence)) {
      continue;
    }
    const ClientSlotEstimate estimate = PerSecond(draw.mean, draw.variance);
    const int capacity = ConfidentCapacity(estimate, 1.0, draw.confidence);
    ASSERT_EQ(capacity, reference::ConfidentCapacity(estimate, 1.0, draw.confidence))
        << "mean=" << draw.mean << " variance=" << draw.variance
        << " confidence=" << draw.confidence;
    negative_binomial += draw.variance > draw.mean ? 1 : 0;
    doubled += capacity >= static_cast<int>(draw.mean + 10.0 * std::sqrt(draw.variance + 1.0)) + 2
                   ? 1
                   : 0;
    ++compared;
  }
  EXPECT_GT(negative_binomial, compared / 2);
  EXPECT_GT(doubled, 0);  // Some draws take the search past its first bound.
}

// The shared term recurrence leaves every tail the planner reads unchanged.
TEST(ConfidentCapacityTest, TailsMatchTheReferenceBitForBit) {
  Rng rng(7);
  for (int n = 0; n < 20000; ++n) {
    const Draw draw = RandomDraw(rng);
    if (draw.variance >= 1e-9 && FirstTerm(draw.mean, draw.variance) == 0.0) {
      continue;
    }
    const int k = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(3.0 * draw.mean) + 5));
    ASSERT_EQ(OverdispersedTailGeq(draw.mean, draw.variance, k),
              reference::OverdispersedTailGeq(draw.mean, draw.variance, k))
        << "mean=" << draw.mean << " variance=" << draw.variance << " k=" << k;
  }
}

// P(N >= k) for the model's count, summed in log space through lgamma, so
// no term underflows on the way to the tail: an independent check for
// counts whose first term the recurrence cannot represent.
double LogSpaceTailGeq(double mean, double variance, int k) {
  double below = 0.0;
  for (int i = 0; i < k; ++i) {
    const double x = static_cast<double>(i);
    double log_pmf;
    if (variance <= mean) {
      log_pmf = -mean + x * std::log(mean) - std::lgamma(x + 1.0);
    } else {
      const double p = mean / variance;
      const double r = mean * mean / (variance - mean);
      log_pmf = std::lgamma(x + r) - std::lgamma(r) - std::lgamma(x + 1.0) + r * std::log(p) +
                x * std::log1p(-p);
    }
    below += std::exp(log_pmf);
  }
  return 1.0 - below;
}

// A week at a busy, bursty client's rate: p^r underflows to 0, so every
// tail the old search probed read 1 and its doubling bound overflowed. The
// walk starts from the logarithm of the first term and lands within one
// count of the log-space quantile, agreeing with OverdispersedTailGeq.
TEST(ConfidentCapacityTest, UnderflowedFirstTermStillFindsTheQuantile) {
  struct Case {
    double mean;
    double variance;
    double confidence;
  };
  for (const Case& c : {Case{11409.0, 661948.0, 0.9}, Case{11409.0, 661948.0, 0.3},
                        Case{2000.0, 2000.0, 0.9}, Case{40320.0, 40320.0, 0.3}}) {
    ASSERT_EQ(FirstTerm(c.mean, c.variance), 0.0);
    const int capacity = ConfidentCapacity(PerSecond(c.mean, c.variance), 1.0, c.confidence);
    ASSERT_GT(capacity, 0);
    EXPECT_GE(LogSpaceTailGeq(c.mean, c.variance, capacity - 1), c.confidence)
        << "mean=" << c.mean << " capacity=" << capacity;
    EXPECT_LT(LogSpaceTailGeq(c.mean, c.variance, capacity + 2), c.confidence)
        << "mean=" << c.mean << " capacity=" << capacity;
    EXPECT_GE(OverdispersedTailGeq(c.mean, c.variance, capacity), c.confidence);
    EXPECT_LT(OverdispersedTailGeq(c.mean, c.variance, capacity + 1), c.confidence);
  }
}

// p^r rounds to the smallest subnormal, 1.46x below its true value, so the
// recurrence's terms sum to about 0.68 and the tail never falls below 0.3:
// the old search doubled forever. The walk notices the sum has stopped
// moving and walks again from the first term's logarithm.
TEST(ConfidentCapacityTest, SubnormalFirstTermThatNeverReachesTheConfidence) {
  const double p = 0.5;
  const double r = 1073.45;
  const double mean = r * (1.0 - p) / p;
  const double variance = mean / p;
  ASSERT_EQ(FirstTerm(mean, variance), std::numeric_limits<double>::denorm_min());
  ASSERT_GE(reference::OverdispersedTailGeq(mean, variance, 100000), 0.3);
  const int capacity = ConfidentCapacity(PerSecond(mean, variance), 1.0, 0.3);
  EXPECT_GE(LogSpaceTailGeq(mean, variance, capacity - 1), 0.3) << capacity;
  EXPECT_LT(LogSpaceTailGeq(mean, variance, capacity + 2), 0.3) << capacity;
}

// A confidence below what 1 - (sum of terms) can resolve is never crossed;
// the walk stops once no term moves the sum instead of running to INT_MAX.
TEST(ConfidentCapacityTest, ConfidenceBelowTheTailsRoundingStops) {
  const int capacity = ConfidentCapacity(PerSecond(50.0, 400.0), 1.0, 1e-300);
  EXPECT_GT(capacity, 50);
  EXPECT_LT(capacity, 5000);
}

TEST(ConfidentCapacityTest, DeterministicCountIsItsFloor) {
  EXPECT_EQ(ConfidentCapacity(PerSecond(7.9, 0.0), 1.0, 0.5), 7);
  EXPECT_EQ(ConfidentCapacity(PerSecond(0.5, 0.0), 1.0, 0.5), 0);
  EXPECT_EQ(ConfidentCapacity(PerSecond(1e12, 0.0), 1.0, 0.5),
            std::numeric_limits<int>::max());
}

TEST(DisplayModelDeathTest, NegativeInputsAbort) {
  ClientSlotEstimate estimate = Estimate(5.0, 0);
  estimate.slots_per_s = -1.0;
  EXPECT_DEATH(DisplayProbability(estimate, 3600.0), "slots_per_s");
  estimate = Estimate(5.0, -1);
  EXPECT_DEATH(DisplayProbability(estimate, 3600.0), "queue_ahead");
}

}  // namespace
}  // namespace pad
