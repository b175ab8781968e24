// Quickstart: run the paper's headline experiment end to end in ~a second.
//
//   $ ./build/examples/quickstart
//
// Generates a small synthetic population, replays it through today's
// fetch-at-display ad path and through the prefetching system, and prints
// the three numbers the paper's abstract is built on: ad-energy savings,
// SLA violation rate, and revenue loss.
#include <iostream>

#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/core/shard_engine.h"

int main() {
  using namespace pad;

  // QuickConfig is a 40-user, 10-day trace (7 warmup + 3 scored days).
  // Every knob of the system hangs off this one struct — see
  // src/core/config.h for the full list.
  PadConfig config = QuickConfig();
  config.population.num_users = 100;

  std::cout << "Simulating " << config.population.num_users << " users, "
            << config.population.horizon_s / kDay << " days (baseline + PAD)...\n";
  const Comparison result = RunComparison(config);

  TextTable table({"metric", "baseline", "pad"});
  table.AddRow({"ad energy (kJ)", FormatDouble(result.baseline.energy.AdEnergyJ() / 1000.0, 1),
                FormatDouble(result.pad.energy.AdEnergyJ() / 1000.0, 1)});
  table.AddRow({"ad slots", std::to_string(result.baseline.service.slots),
                std::to_string(result.pad.service.slots)});
  table.AddRow({"served from cache", "0",
                std::to_string(result.pad.service.served_from_cache)});
  table.AddRow({"billed revenue ($)",
                FormatDouble(result.baseline.ledger.billed_revenue, 2),
                FormatDouble(result.pad.ledger.billed_revenue, 2)});
  table.Print(std::cout);

  std::cout << "\nHeadline:\n"
            << "  ad energy savings:  " << FormatDouble(100.0 * result.AdEnergySavings(), 1)
            << "% (paper: >50%)\n"
            << "  SLA violation rate: "
            << FormatDouble(100.0 * result.pad.ledger.SlaViolationRate(), 2) << "%\n"
            << "  revenue loss rate:  "
            << FormatDouble(100.0 * result.pad.ledger.RevenueLossRate(), 2) << "%\n";
  return 0;
}
