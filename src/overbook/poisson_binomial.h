// Poisson-binomial distribution: the number of successes among independent
// Bernoulli trials with heterogeneous probabilities.
//
// This is the overbooking model's core object: replicate an ad to clients
// with display probabilities p_1..p_k and the number of displays before the
// deadline is PoissonBinomial(p). The planner needs its upper tail (SLA
// attainment) and mean (expected displays, hence expected excess).
//
// Exact evaluation is the classic O(k^2) convolution DP — k is the replica
// count (tens at most), so exact is cheap. A normal approximation with
// continuity correction is provided for the planner's fast path and as an
// ablation (E12 measures the speed gap, tests measure the accuracy gap).
#ifndef ADPAD_SRC_OVERBOOK_POISSON_BINOMIAL_H_
#define ADPAD_SRC_OVERBOOK_POISSON_BINOMIAL_H_

#include <span>
#include <vector>

namespace pad {

// Exact PMF: result[i] = P(X = i), size probs.size() + 1.
std::vector<double> PoissonBinomialPmf(std::span<const double> probs);

// Exact upper tail P(X >= k). k <= 0 returns 1.
double PoissonBinomialTailGeq(std::span<const double> probs, int k);

// Mean and variance of the Poisson binomial.
double PoissonBinomialMean(std::span<const double> probs);
double PoissonBinomialVariance(std::span<const double> probs);

// Standard normal CDF.
double NormalCdf(double x);

// Normal approximation to P(X >= k) with continuity correction.
double PoissonBinomialTailGeqNormal(std::span<const double> probs, int k);

// Upper tail of a plain Binomial(n, p): P(X >= k). Exact.
double BinomialTailGeq(int n, double p, int k);

// Upper tail of Poisson(lambda): P(N >= k). Exact via the series, summed from
// the low side for stability. Where e^-lambda underflows (lambda past ~745)
// the series starts at its first term >= DBL_MIN instead.
double PoissonTailGeq(double lambda, int k);

// Upper tail of an overdispersed count with the given mean and variance,
// P(N >= k), modeled as a negative binomial (the natural fit for session-
// bursty slot arrivals: Poisson sessions x per-session slot bursts).
// Degenerates gracefully: variance <= mean falls back to Poisson(mean), and
// a near-zero variance becomes the deterministic threshold mean >= k. As for
// PoissonTailGeq, an underflowed first term starts the series at its first
// normal term.
double OverdispersedTailGeq(double mean, double variance, int k);

// The largest k with OverdispersedTailGeq(mean, variance, k) >= confidence,
// for confidence in (0, 1): one forward walk over the partial sums
// OverdispersedTailGeq forms, stopping at the first count whose tail falls
// below the confidence, so O(k) terms in all. Where the first term is
// subnormal and the sum, carried on its few bits, never reaches
// 1 - confidence, the walk restarts from the term's logarithm. A confidence
// below the tail's rounding (~1e-16) is never crossed; the walk then stops
// where no further term moves the sum and returns that count. The result
// never exceeds INT_MAX. Requires a finite mean and variance, both >= 0.
int OverdispersedTailQuantile(double mean, double variance, double confidence);

}  // namespace pad

#endif  // ADPAD_SRC_OVERBOOK_POISSON_BINOMIAL_H_
