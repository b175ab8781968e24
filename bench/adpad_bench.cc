// adpad_bench — regenerates one experiment of DESIGN.md §4 (E1–E23; E12's
// google-benchmark suite is bench_micro).
//
//   $ adpad_bench prefetch_savings users=1700
//   $ adpad_bench tradeoff threads=4 json=tradeoff.json
//   $ adpad_bench population_scale scale_users=1000000 market_users=2000
//         max_resident_users=20000 days=9 json=BENCH_population_scale.json
//
// The experiment's name is the `bench` field of the rows it writes. Every
// other argument is `key=value` (src/common/options.h); `json=<path>` writes
// the rows as BenchRow JSON for tools/bench_compare. A missing or unknown
// experiment, a malformed or out-of-range value, or a key the experiment
// would not read exits 2 with one line on stderr before any work starts.
#include <iostream>
#include <optional>
#include <string>

#include "bench/bench_util.h"

namespace pad {
namespace {

struct Entry {
  const char* name;
  const char* experiments;
  bench::Experiment (*prepare)(const Options& options);
};

constexpr Entry kExperiments[] = {
    {"energy_breakdown", "E1", bench::EnergyBreakdown},
    {"tail_energy", "E2", bench::TailEnergy},
    {"trace_characterization", "E3", bench::TraceCharacterization},
    {"predictability", "E4", bench::Predictability},
    {"prefetch_savings", "E5", bench::PrefetchSavings},
    {"overbooking", "E6", bench::Overbooking},
    {"tradeoff", "E7", bench::Tradeoff},
    {"deadline_sensitivity", "E8", bench::DeadlineSensitivity},
    {"radio_model", "E9", bench::RadioModel},
    {"population_scale", "E10/E17", bench::PopulationScale},
    {"prediction_noise", "E11", bench::PredictionNoise},
    {"targeting", "E13", bench::Targeting},
    {"wifi_offload", "E14", bench::WifiOffload},
    {"model_calibration", "E15", bench::ModelCalibration},
    {"fault_tolerance", "E16", bench::FaultTolerance},
    {"skewed_population", "E19", bench::SkewedPopulation},
    {"hot_path", "E20", bench::HotPath},
    {"serving_latency", "E21", bench::ServingLatency},
    {"multiproc_scale", "E22", bench::MultiprocScale},
    {"serving_chaos", "E23", bench::ServingChaos},
};

int Usage(const std::string& problem) {
  std::cerr << "adpad_bench: " << problem << "; usage: adpad_bench <experiment> key=value...;"
            << " experiments:";
  for (const Entry& entry : kExperiments) {
    std::cerr << " " << entry.name << " (" << entry.experiments << ")";
  }
  std::cerr << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage("no experiment given");
  }
  const std::string name = argv[1];
  const Entry* entry = nullptr;
  for (const Entry& candidate : kExperiments) {
    if (name == candidate.name) {
      entry = &candidate;
    }
  }
  if (entry == nullptr) {
    return Usage("unknown experiment '" + name + "'");
  }

  // argv[1] is the experiment, so the options start one further in.
  std::string error;
  const std::optional<Options> options = Options::Parse(argc - 1, argv + 1, &error);
  if (!options) {
    std::cerr << "adpad_bench: " << error << "\n";
    return 2;
  }
  const std::string json_path = options->GetString("json", "");
  const bench::Experiment experiment = entry->prepare(*options);
  if (!options->error().empty()) {
    std::cerr << "adpad_bench: " << options->error() << "\n";
    return 2;
  }
  for (const std::string& key : options->UnusedKeys()) {
    std::cerr << "adpad_bench: unknown option '" << key << "' for " << name << "\n";
    return 2;
  }

  bench::BenchJson json(name, json_path);
  const int status = experiment(json);
  if (status != 0) {
    return status;
  }
  return json.Flush() ? 0 : 1;
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) { return pad::Main(argc, argv); }
