#include "src/overbook/poisson_binomial.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <tuple>
#include <utility>

#include "src/common/check.h"

namespace pad {
namespace {

constexpr int kMaxCount = std::numeric_limits<int>::max();
// log(DBL_MIN). A sum whose first term underflows skips every term below
// it: fewer than 2^31 of them add less than 1e-298, far below what a tail
// 1 - P(N < k) near 1 can resolve.
constexpr double kLogMinNormal = -1022.0 * std::numbers::ln2;

// The count's pmf as a term recurrence, the one definition behind
// PoissonTailGeq, OverdispersedTailGeq and OverdispersedTailQuantile:
//   term(0) = First(),  term(i + 1) = term(i) * Ratio(i).
// Poisson(mean) when variance <= mean:
//   term(0) = e^-m,  term(i + 1) = term(i) * m / (i + 1);
// otherwise the negative binomial with that mean m and variance v:
//   p = m / v,  r = m^2 / (v - m),  term(0) = p^r,
//   term(i + 1) = term(i) * (i + r) / (i + 1) * (1 - p).
// Every term is >= 0, so a running sum of them never decreases, and the
// ratio falls below 1 past the mode and stays there.
class CountTerms {
 public:
  CountTerms(double mean, double variance) : poisson_(variance <= mean) {
    if (poisson_) {
      r_ = mean;
      first_ = std::exp(-mean);
    } else {
      p_ = mean / variance;
      r_ = mean * mean / (variance - mean);
      q_ = 1.0 - p_;
      first_ = std::pow(p_, r_);
    }
  }

  // term(0); 0 when it underflows (a mean past ~745 slots).
  double First() const { return first_; }

  double Ratio(int i) const {
    const double next = static_cast<double>(i) + 1.0;
    return poisson_ ? r_ / next : (static_cast<double>(i) + r_) / next * q_;
  }

  // For an underflowed First(): the first term at or above DBL_MIN and its
  // index, stepping the logarithm of the recurrence from log term(0). Stops
  // at the mode, where no later term is larger.
  std::pair<int, double> FirstNormalTerm() const {
    double log_term = poisson_ ? -r_ : r_ * std::log(p_);
    int i = 0;
    while (log_term < kLogMinNormal && i < kMaxCount) {
      const double ratio = Ratio(i);
      if (ratio <= 1.0) {
        break;
      }
      log_term += std::log(ratio);
      ++i;
    }
    return {i, std::exp(log_term)};
  }

 private:
  bool poisson_;
  double r_ = 0.0;  // Poisson: the mean. Negative binomial: r.
  double p_ = 0.0;  // Negative binomial only, as is q_ = 1 - p.
  double q_ = 0.0;
  double first_ = 0.0;
};

// P(N >= k) = 1 - sum_{i < k} term(i), summed from the low side for
// stability. An underflowed first term starts the sum at the first normal
// term; the skipped terms add nothing.
double TailGeq(const CountTerms& terms, int k) {
  int i = 0;
  double term = terms.First();
  if (term == 0.0) {
    std::tie(i, term) = terms.FirstNormalTerm();
  }
  double below = 0.0;
  for (; i < k; ++i) {
    below += term;
    term *= terms.Ratio(i);
  }
  return std::clamp(1.0 - below, 0.0, 1.0);
}

struct QuantileWalk {
  int count = 0;
  // The sum stopped moving with the tail still >= confidence: every larger
  // count has the same tail, so no count past `count` falls below it.
  bool stalled = false;
};

// The largest k with TailGeq(terms, k) >= confidence, by one forward walk
// from term(i) = `term` (earlier terms count as 0). It forms each partial
// sum by the additions TailGeq makes, in the same order, so it stops at the
// first k whose tail TailGeq puts below the confidence. As confidence is in
// (0, 1) and the sum is >= 0, `1 - below < confidence` is the clamped test.
QuantileWalk WalkToQuantile(const CountTerms& terms, int i, double term, double confidence) {
  double below = 0.0;
  for (; i < kMaxCount; ++i) {
    below += term;
    if (1.0 - below < confidence) {
      return {i, false};  // P(N >= i + 1) < confidence <= P(N >= i).
    }
    const double ratio = terms.Ratio(i);
    term *= ratio;
    // Past the mode every later term is <= this one, so once this one no
    // longer changes the sum, no later one can.
    if (ratio <= 1.0 && below + term == below) {
      return {i + 1, true};
    }
  }
  return {kMaxCount, true};
}

}  // namespace

std::vector<double> PoissonBinomialPmf(std::span<const double> probs) {
  std::vector<double> pmf(1, 1.0);
  pmf.reserve(probs.size() + 1);
  for (double p : probs) {
    PAD_CHECK(p >= 0.0 && p <= 1.0);
    pmf.push_back(0.0);
    // Convolve in place, high index first so each trial is used once.
    for (size_t i = pmf.size() - 1; i > 0; --i) {
      pmf[i] = pmf[i] * (1.0 - p) + pmf[i - 1] * p;
    }
    pmf[0] *= (1.0 - p);
  }
  return pmf;
}

double PoissonBinomialTailGeq(std::span<const double> probs, int k) {
  if (k <= 0) {
    return 1.0;
  }
  if (k > static_cast<int>(probs.size())) {
    return 0.0;
  }
  const std::vector<double> pmf = PoissonBinomialPmf(probs);
  // Sum the smaller side for accuracy.
  if (k <= static_cast<int>(pmf.size()) / 2) {
    double below = 0.0;
    for (int i = 0; i < k; ++i) {
      below += pmf[static_cast<size_t>(i)];
    }
    return std::clamp(1.0 - below, 0.0, 1.0);
  }
  double tail = 0.0;
  for (size_t i = static_cast<size_t>(k); i < pmf.size(); ++i) {
    tail += pmf[i];
  }
  return std::clamp(tail, 0.0, 1.0);
}

double PoissonBinomialMean(std::span<const double> probs) {
  double mean = 0.0;
  for (double p : probs) {
    mean += p;
  }
  return mean;
}

double PoissonBinomialVariance(std::span<const double> probs) {
  double variance = 0.0;
  for (double p : probs) {
    variance += p * (1.0 - p);
  }
  return variance;
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double PoissonBinomialTailGeqNormal(std::span<const double> probs, int k) {
  if (k <= 0) {
    return 1.0;
  }
  if (k > static_cast<int>(probs.size())) {
    return 0.0;
  }
  const double mean = PoissonBinomialMean(probs);
  const double variance = PoissonBinomialVariance(probs);
  if (variance <= 0.0) {
    return mean >= static_cast<double>(k) ? 1.0 : 0.0;
  }
  // Continuity-corrected: P(X >= k) ~= P(Z >= (k - 0.5 - mean) / sd).
  const double z = (static_cast<double>(k) - 0.5 - mean) / std::sqrt(variance);
  return 1.0 - NormalCdf(z);
}

double BinomialTailGeq(int n, double p, int k) {
  PAD_CHECK(n >= 0);
  PAD_CHECK(p >= 0.0 && p <= 1.0);
  if (k <= 0) {
    return 1.0;
  }
  if (k > n) {
    return 0.0;
  }
  // Sum P(X < k) with the multiplicative pmf recursion from P(X = 0).
  double pmf = std::pow(1.0 - p, n);
  double below = 0.0;
  if (p == 1.0) {
    return 1.0;  // All trials succeed; k <= n already checked.
  }
  for (int i = 0; i < k; ++i) {
    below += pmf;
    pmf *= static_cast<double>(n - i) / static_cast<double>(i + 1) * (p / (1.0 - p));
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
  return TailGeq(CountTerms(mean, variance), k);
}

int OverdispersedTailQuantile(double mean, double variance, double confidence) {
  PAD_CHECK(std::isfinite(mean) && mean >= 0.0);
  PAD_CHECK(std::isfinite(variance) && variance >= 0.0);
  PAD_CHECK(confidence > 0.0 && confidence < 1.0);
  if (mean == 0.0) {
    return 0;
  }
  if (variance < 1e-9) {
    // Deterministic count: every k <= mean clears any confidence.
    return static_cast<int>(std::min(std::floor(mean), static_cast<double>(kMaxCount)));
  }
  const CountTerms terms(mean, variance);
  if (terms.First() > 0.0) {
    const QuantileWalk walk = WalkToQuantile(terms, 0, terms.First(), confidence);
    if (!walk.stalled) {
      return walk.count;
    }
    // The sum stopped short of 1 - confidence: a subnormal first term may
    // carry too few bits, so walk again from its logarithm. (A confidence
    // below the tail's rounding stalls there as well.)
  }
  const auto [i, term] = terms.FirstNormalTerm();
  return WalkToQuantile(terms, i, term, confidence).count;
}

double PoissonTailGeq(double lambda, int k) {
  PAD_CHECK(lambda >= 0.0);
  if (k <= 0) {
    return 1.0;
  }
  if (lambda == 0.0) {
    return 0.0;
  }
  return TailGeq(CountTerms(lambda, lambda), k);
}

}  // namespace pad
