// End-to-end experiment configuration: one struct aggregating every knob of
// the trace, the radio, the market, the predictor, and the PAD policy.
#ifndef ADPAD_SRC_CORE_CONFIG_H_
#define ADPAD_SRC_CORE_CONFIG_H_

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

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
  // use_noisy_oracle replaces the trained predictor with a noisy oracle of
  // this sigma, which must then be >= 0 (the E11 instrument).
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

// A knob's valid values: finite numbers from `low` to `high`, each bound
// excluded when it is open. The default range takes any finite value.
struct KnobRange {
  double low = -std::numeric_limits<double>::infinity();
  double high = std::numeric_limits<double>::infinity();
  bool low_open = false;
  bool high_open = false;

  static constexpr KnobRange Any() { return {}; }
  static constexpr KnobRange Positive() { return {.low = 0.0, .low_open = true}; }
  static constexpr KnobRange AtLeast(double low) { return {.low = low}; }
  static constexpr KnobRange Closed(double low, double high) { return {.low = low, .high = high}; }
  static constexpr KnobRange Unit() { return Closed(0.0, 1.0); }
  static constexpr KnobRange OpenUnit() { return {0.0, 1.0, true, true}; }
};

// The one list of PadConfig's knobs, in ConfigFingerprint's mixing order:
// ForEachKnob(config, visit) calls visit(dotted_name, field, range) once per
// field. ValidateConfig holds each arithmetic field to its range; bools, the
// predictor and the composites take Any(). Reordering, adding or removing a
// line moves every fingerprint and strands every journal on disk
// (ConfigFingerprintTest.ValuesArePinned). `config` may be const or mutable.
template <typename Config, typename Visit>
  requires std::same_as<std::remove_const_t<Config>, PadConfig>
void ForEachKnob(Config& config, Visit&& visit) {
  using R = KnobRange;
  auto& pop = config.population;
  visit("population.num_users", pop.num_users, R::AtLeast(1.0));
  visit("population.horizon_s", pop.horizon_s, R::Positive());
  visit("population.num_apps", pop.num_apps, R::Any());
  visit("population.app_zipf_exponent", pop.app_zipf_exponent, R::Any());
  visit("population.num_segments", pop.num_segments, R::Closed(1.0, kMaxSegments));
  visit("population.archetypes", pop.archetypes, R::Any());
  visit("population.rate_spread_sigma", pop.rate_spread_sigma, R::Any());
  visit("population.phase_jitter_h", pop.phase_jitter_h, R::Any());
  visit("population.day_noise_sigma", pop.day_noise_sigma, R::Any());
  visit("population.weekend_rate_multiplier", pop.weekend_rate_multiplier, R::Any());
  visit("population.weekend_phase_shift_h", pop.weekend_phase_shift_h, R::Any());
  visit("population.flat_diurnal", pop.flat_diurnal, R::Any());
  visit("population.min_session_s", pop.min_session_s, R::Any());
  visit("population.max_session_s", pop.max_session_s, R::Any());
  visit("population.seed", pop.seed, R::Any());
  visit("population.skew_heavy_fraction", pop.skew_heavy_fraction, R::Unit());
  visit("population.skew_rate_multiplier", pop.skew_rate_multiplier, R::Positive());

  auto& camp = config.campaigns;
  visit("campaigns.horizon_s", camp.horizon_s, R::Any());
  visit("campaigns.arrivals_per_day", camp.arrivals_per_day, R::Positive());
  visit("campaigns.cpm_mu", camp.cpm_mu, R::Any());
  visit("campaigns.cpm_sigma", camp.cpm_sigma, R::Any());
  visit("campaigns.target_mu", camp.target_mu, R::Any());
  visit("campaigns.target_sigma", camp.target_sigma, R::Any());
  visit("campaigns.display_deadline_s", camp.display_deadline_s, R::Any());
  visit("campaigns.num_segments", camp.num_segments, R::Any());
  visit("campaigns.targeted_fraction", camp.targeted_fraction, R::Unit());
  visit("campaigns.segment_selectivity", camp.segment_selectivity, R::Unit());
  visit("campaigns.capped_fraction", camp.capped_fraction, R::Unit());
  visit("campaigns.frequency_cap_per_day", camp.frequency_cap_per_day, R::Any());
  visit("campaigns.budgeted_fraction", camp.budgeted_fraction, R::Unit());
  visit("campaigns.budget_value_multiple", camp.budget_value_multiple, R::Any());
  visit("campaigns.seed", camp.seed, R::Any());

  visit("exchange.reserve_price", config.exchange.reserve_price, R::AtLeast(0.0));
  visit("exchange.num_segments", config.exchange.num_segments, R::Any());
  visit("planner.sla_target", config.planner.sla_target, R::OpenUnit());
  visit("planner.max_replicas", config.planner.max_replicas, R::AtLeast(1.0));
  visit("planner.exact_tail", config.planner.exact_tail, R::Any());
  visit("planner.confidence_discount", config.planner.confidence_discount, R{0.0, 1.0, true});

  visit("radio", config.radio, R::Any());
  visit("wifi_radio", config.wifi_radio, R::Any());
  visit("wifi.enabled", config.wifi.enabled, R::Any());
  visit("wifi.home_start_h", config.wifi.home_start_h, R::Any());
  visit("wifi.home_end_h", config.wifi.home_end_h, R::Any());
  visit("wifi.jitter_h", config.wifi.jitter_h, R::Any());

  visit("prediction_window_s", config.prediction_window_s, R::Positive());
  visit("deadline_s", config.deadline_s, R::Positive());
  visit("predictor", config.predictor, R::Any());
  visit("oracle_noise_sigma", config.oracle_noise_sigma, R::Any());
  visit("use_noisy_oracle", config.use_noisy_oracle, R::Any());
  visit("overbooking_factor", config.overbooking_factor, R::Any());
  visit("candidate_pool", config.candidate_pool, R::AtLeast(0.0));
  visit("random_candidates", config.random_candidates, R::AtLeast(0.0));
  visit("inventory_control", config.inventory_control, R::Any());
  visit("capacity_confidence", config.capacity_confidence, R::OpenUnit());
  visit("invalidation_sync", config.invalidation_sync, R::Any());
  visit("invalidation_bytes", config.invalidation_bytes, R::AtLeast(0.0));
  visit("rescue_enabled", config.rescue_enabled, R::Any());
  visit("rescue_horizon_s", config.rescue_horizon_s, R::Any());
  visit("rescue_threshold", config.rescue_threshold, R::Unit());
  visit("max_slot_rate_per_s", config.max_slot_rate_per_s, R::Positive());
  visit("ad_bytes", config.ad_bytes, R::Positive());
  visit("slot_report_bytes", config.slot_report_bytes, R::AtLeast(0.0));

  auto& faults = config.faults;
  visit("faults.report_drop_rate", faults.report_drop_rate, R::Unit());
  visit("faults.report_delay_rate", faults.report_delay_rate, R::Unit());
  visit("faults.fetch_failure_rate", faults.fetch_failure_rate, R::Unit());
  visit("faults.fetch_max_retries", faults.fetch_max_retries, R::AtLeast(0.0));
  visit("faults.sync_miss_rate", faults.sync_miss_rate, R::Unit());
  visit("faults.offline_rate", faults.offline_rate, R::Unit());
  visit("faults.offline_window_s", faults.offline_window_s, R::Any());
  visit("faults.stale_decay", faults.stale_decay, R::Unit());

  visit("warmup_days", config.warmup_days, R::AtLeast(0.0));
  visit("market_users", config.market_users, R::AtLeast(0.0));
  visit("seed", config.seed, R::Any());
}

// Checks each knob against its range in ForEachKnob, then the rules that tie
// knobs together. Returns the empty string when valid, otherwise one line
// naming the offending knob. The runners call this at entry so a nonsensical
// config fails with a clear message instead of tripping a CHECK deep in the
// run; tools should call it themselves and surface the message.
std::string ValidateConfig(const PadConfig& config);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_CONFIG_H_
