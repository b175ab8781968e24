// End-to-end experiment configuration: one struct aggregating every knob of
// the trace, the radio, the market, the predictor, and the PAD policy.
#ifndef ADPAD_SRC_CORE_CONFIG_H_
#define ADPAD_SRC_CORE_CONFIG_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "src/auction/campaign.h"
#include "src/auction/exchange.h"
#include "src/core/faults.h"
#include "src/core/wifi_policy.h"
#include "src/common/units.h"
#include "src/overbook/replication_planner.h"
#include "src/prediction/predictors.h"
#include "src/radio/profile.h"
#include "src/trace/generator.h"

namespace pad {

struct PadConfig {
  PopulationConfig population;
  CampaignStreamConfig campaigns;
  ExchangeConfig exchange;
  // Replica cap of 8 keeps worst-case excess bounded; the adaptive planner
  // rarely needs more than 2-3 once candidates are activity-ranked.
  PlannerConfig planner{.sla_target = 0.90, .max_replicas = 2, .exact_tail = true,
                        .confidence_discount = 1.0};
  RadioProfile radio = ThreeGProfile();
  // WiFi offload extension (E14): when wifi.enabled, transfers ride the
  // wifi_radio profile during each user's home window — in both the
  // baseline and PAD, so the comparison stays fair.
  WifiPolicy wifi;
  RadioProfile wifi_radio = WifiProfile();

  // Client prediction window T: predictions are made (and slot reports
  // uploaded) once per window. Must divide a day evenly.
  double prediction_window_s = 1.0 * kHour;
  // Display deadline D promised to advertisers at sale time. Hours-scale by
  // default: with hourly epochs the cross-epoch invalidation sync can retire
  // redundant replicas before they waste slots.
  double deadline_s = 3.0 * kHour;
  // Predictor driving the slot estimates.
  PredictorKind predictor = PredictorKind::kTimeOfDay;
  // > 0 replaces the trained predictor with a noisy oracle of this sigma
  // (the E11 instrument).
  double oracle_noise_sigma = -1.0;
  bool use_noisy_oracle = false;

  // Fixed overbooking factor for PlanWithFactor; <= 0 selects the adaptive
  // PlanToTarget policy.
  double overbooking_factor = -1.0;

  // How many non-home clients the server considers as replica candidates per
  // impression: the top `candidate_pool` clients by predicted activity this
  // epoch plus `random_candidates` uniform picks for diversity.
  int candidate_pool = 24;
  int random_candidates = 8;

  // Don't sell inventory a client's cache already covers (its queued ads are
  // committed claims on its upcoming slots).
  bool inventory_control = true;
  // Confidence level used to size per-client sale capacity. Lower values
  // sell more aggressively and lean on replication/fallback to absorb the
  // risk; the planner's sla_target governs replication separately.
  double capacity_confidence = 0.30;

  // At each sync, tell clients which of their cached replicas were already
  // billed elsewhere so they stop occupying slots; each id costs
  // `invalidation_bytes` of piggybacked downlink traffic.
  bool invalidation_sync = true;
  double invalidation_bytes = 16.0;

  // Rescue pass: give a still-open impression one extra replica when its
  // remaining deadline drops below rescue_horizon_s (<= 0 means one epoch).
  // Requires invalidation_sync (placement tracking).
  bool rescue_enabled = true;
  double rescue_horizon_s = -1.0;
  // Rescue only impressions whose current holders' combined display
  // probability falls below this bar (1.0 rescues everything open).
  double rescue_threshold = 0.80;

  // Upper bound on the believable slot rate (slots/second): ads refresh at
  // >= 30 s, so even several concurrently foregrounded apps cannot beat
  // this. Predictions are clamped here before reaching the server; without
  // it a heavy-tailed predictor error can report absurd inventory.
  double max_slot_rate_per_s = 1.0 / 15.0;

  // Payload sizes.
  double ad_bytes = 3.0 * kKiB;
  double slot_report_bytes = 400.0;

  // Deterministic fault injection on the PAD control plane (see faults.h).
  // All rates default to zero: a perfect network, byte-identical to builds
  // that predate the fault layer.
  FaultConfig faults;

  // Days of trace used purely to train predictors before scoring starts.
  int warmup_days = 7;

  // Semantic shard size for the streaming engine (core/shard_engine.h):
  // users are partitioned into independent markets of at most this many
  // clients, each with its own exchange, server, and a campaign stream
  // scaled to its population share. 0 keeps the whole population in one
  // market — exactly the monolithic RunComparison semantics. This is a
  // *modeling* knob like num_users: it changes results. The execution knobs
  // (threads, schedule, steal_seed, max_resident_users, processes) never do.
  int64_t market_users = 0;

  uint64_t seed = 1234;

  // Derived: sale-epoch length (see pad_simulation.h). The epoch is the
  // largest divisor of T no longer than D/2, so that (a) every window
  // boundary is an epoch boundary and (b) every sold impression lives
  // through at least one sync — without (b), invalidation and rescue would
  // be inert exactly when deadlines are tightest.
  double EpochS() const {
    const double target = deadline_s / 2.0;
    if (target >= prediction_window_s) {
      return prediction_window_s;
    }
    const int divisions = static_cast<int>(std::ceil(prediction_window_s / target - 1e-9));
    return prediction_window_s / static_cast<double>(divisions);
  }
  double WarmupS() const { return static_cast<double>(warmup_days) * kDay; }
};

// A small default configuration that runs in well under a second; the bench
// harnesses scale it up.
PadConfig QuickConfig();

// Validates every knob of the config that can be checked without the
// generated inputs (rates in range, window divides a day, deadline positive,
// fault knobs sane, ...). Returns the empty string when valid, otherwise a
// one-line description naming the offending knob. The runners call this at
// entry so a nonsensical config fails with a clear message instead of
// tripping a CHECK deep in the run; tools should call it themselves and
// surface the message.
std::string ValidateConfig(const PadConfig& config);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_CONFIG_H_
