// Per-client display-probability model.
//
// When the PAD server considers replicating an ad to a client, it needs
// P(this client displays one more ad before the deadline). Slot production
// over the deadline horizon is modeled as an overdispersed count (negative
// binomial) with mean and variance scaled from the client's per-window
// prediction: slots arrive in session bursts, so the variance the predictor
// reports is typically several times the mean, and a Poisson model would be
// dangerously overconfident at depth (the calibration failure E6/E11 would
// expose immediately).
//
// An ad that lands behind `queue_ahead` cached ads displays iff the client
// produces at least queue_ahead + 1 slots before the deadline.
#ifndef ADPAD_SRC_OVERBOOK_DISPLAY_MODEL_H_
#define ADPAD_SRC_OVERBOOK_DISPLAY_MODEL_H_

namespace pad {

struct ClientSlotEstimate {
  int client_id = 0;
  // Predicted slot production rate (slots per second) over the upcoming
  // period, from the client's slot predictor.
  double slots_per_s = 0.0;
  // Predicted variance of the slot count, per second (variance over a
  // horizon h is var_per_s * h — variance is additive over time for the
  // compound-Poisson arrivals the traces exhibit).
  double var_per_s = 0.0;
  // Ads already queued in the client's cache ahead of a new arrival.
  int queue_ahead = 0;
};

// P(client displays one more ad within deadline_s).
double DisplayProbability(const ClientSlotEstimate& estimate, double deadline_s);

// Calibration discount multiplied into every probability, compensating for
// residual model error. 1.0 = trust the model fully.
double DiscountedDisplayProbability(const ClientSlotEstimate& estimate, double deadline_s,
                                    double confidence_discount);

// The largest queue depth a client can confidently drain within deadline_s:
// max q such that P(slot count >= q) >= confidence. This is the server's
// per-client sale budget — selling past it turns the marginal impression
// into a coin flip. Returns 0 when even one slot is not confident. One
// forward walk over the tail (OverdispersedTailQuantile), O(capacity), for
// any deadline: a week at a busy client's rate works too.
int ConfidentCapacity(const ClientSlotEstimate& estimate, double deadline_s, double confidence);

}  // namespace pad

#endif  // ADPAD_SRC_OVERBOOK_DISPLAY_MODEL_H_
