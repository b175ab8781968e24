#include "src/overbook/display_model.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/overbook/poisson_binomial.h"

namespace pad {

double DisplayProbability(const ClientSlotEstimate& estimate, double deadline_s) {
  PAD_CHECK(estimate.slots_per_s >= 0.0);
  PAD_CHECK(estimate.var_per_s >= 0.0);
  PAD_CHECK(estimate.queue_ahead >= 0);
  PAD_CHECK(deadline_s >= 0.0);
  const double mean = estimate.slots_per_s * deadline_s;
  const double variance = estimate.var_per_s * deadline_s;
  return OverdispersedTailGeq(mean, variance, estimate.queue_ahead + 1);
}

double DiscountedDisplayProbability(const ClientSlotEstimate& estimate, double deadline_s,
                                    double confidence_discount) {
  PAD_CHECK(confidence_discount >= 0.0 && confidence_discount <= 1.0);
  return std::clamp(DisplayProbability(estimate, deadline_s) * confidence_discount, 0.0, 1.0);
}

int ConfidentCapacity(const ClientSlotEstimate& estimate, double deadline_s, double confidence) {
  return OverdispersedTailQuantile(estimate.slots_per_s * deadline_s,
                                   estimate.var_per_s * deadline_s, confidence);
}

}  // namespace pad
