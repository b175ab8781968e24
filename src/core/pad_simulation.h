// End-to-end runners.
//
// RunBaseline reproduces today's ad path on a trace: every slot triggers a
// real-time auction and an on-demand ad fetch at display time. RunPad runs
// the paper's system on the same trace and the same campaign stream:
// predictions, advance sales every epoch E = min(T, D), overbooked replica
// dispatch, cache serving with on-demand fallback.
//
// Both runners score only the post-warmup part of the trace; warmup days
// exist so predictors start trained (the paper's users likewise have history
// before the system makes decisions about them).
//
// Simplifications versus the paper, and why they are benign (see DESIGN.md):
//   * all sales for an epoch happen in one batch at epoch start rather than
//     continuously — deadlines are measured from sale time either way;
//   * a dispatched ad is usable by the client immediately (the seconds-scale
//     radio latency is negligible against hour-scale deadlines);
//   * the baseline fetches an ad at every slot even when the auction found
//     no paying campaign (real SDKs fetch house ads).
#ifndef ADPAD_SRC_CORE_PAD_SIMULATION_H_
#define ADPAD_SRC_CORE_PAD_SIMULATION_H_

#include <vector>

#include "src/apps/app_profile.h"
#include "src/auction/campaign.h"
#include "src/core/config.h"
#include "src/core/event_log.h"
#include "src/core/metrics.h"
#include "src/trace/session.h"

namespace pad {

// Drops every session starting before `t0` (times stay absolute).
Population FilterPopulation(const Population& population, double t0);

// The shared inputs of a paired comparison.
struct SimInputs {
  Population population;
  AppCatalog catalog;
  std::vector<Campaign> campaigns;
};

// Returns `config` with the derived generator fields aligned: the catalog
// size is copied into the population, and the campaign stream inherits the
// population horizon, the display deadline, and the segment count. Both the
// monolithic GenerateInputs path and the shard engine go through this, so a
// sharded run generates from exactly the inputs a monolithic run would.
PadConfig AlignInputsConfig(const PadConfig& config);

// One validated config plus its derived per-run constants. Every runner
// entry point used to re-run ValidateConfig on the same config (GenerateInputs,
// RunBaseline, and RunPad each validated); building a SimContext validates
// exactly once and precomputes the warmup/window/epoch tiling the hot path
// needs. Aborts (PAD_CHECK) on an invalid config, exactly like the legacy
// entry points — callers that need a recoverable pad::Status keep validating
// at their own boundary first (the shard engine does).
struct SimContext {
  PadConfig config;

  // Derived constants, hoisted out of the runners.
  double t0 = 0.0;        // End of warmup (WarmupS()).
  double window_s = 0.0;  // Prediction window.
  double epoch_s = 0.0;   // Sale epoch (EpochS()).
  int warmup_windows = 0;
  int epochs_per_window = 0;
};

SimContext MakeSimContext(const PadConfig& config);

// Generates population + catalog + campaign stream from the config, aligning
// the campaign deadline and horizon with the config's values.
SimInputs GenerateInputs(const SimContext& context);
SimInputs GenerateInputs(const PadConfig& config);

BaselineResult RunBaseline(const SimContext& context, const SimInputs& inputs);
BaselineResult RunBaseline(const PadConfig& config, const SimInputs& inputs);

// `event_log`, when non-null, records every market and dispatch event of the
// run (see core/event_log.h).
PadRunResult RunPad(const SimContext& context, const SimInputs& inputs,
                    EventLog* event_log = nullptr);
PadRunResult RunPad(const PadConfig& config, const SimInputs& inputs,
                    EventLog* event_log = nullptr);

}  // namespace pad

#endif  // ADPAD_SRC_CORE_PAD_SIMULATION_H_
