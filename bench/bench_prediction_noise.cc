// E11 — Robustness to prediction error: the abstract calls the client
// estimate "unreliable" and claims overbooking absorbs it. A noisy oracle
// injects controlled multiplicative error (the predictor *reports* its own
// noise variance, so the overbooking model can price the risk), sweeping
// from perfect foresight to wildly wrong.
#include "bench/bench_util.h"

namespace pad {
namespace {

void Run(int num_users, const SweepOptions& sweep, bench::BenchJson& json) {
  PadConfig config = bench::StandardConfig(num_users);
  config.use_noisy_oracle = true;
  config.oracle_noise_sigma = 0.0;  // A noisy oracle needs a sigma to validate.
  const SimInputs inputs = GenerateInputs(config);
  const BaselineResult baseline = RunBaseline(config, inputs);

  PrintBanner(std::cout, "E11: noisy-oracle sigma sweep (lognormal, mean-preserving)");
  const std::vector<double> sigmas = {0.0, 0.25, 0.5, 0.75, 1.0, 1.5};
  std::vector<PadConfig> points;
  for (double sigma : sigmas) {
    PadConfig point = config;
    point.oracle_noise_sigma = sigma;
    points.push_back(point);
  }
  TextTable table(bench::MetricsHeader("noise_sigma"));
  const std::vector<PadRunResult> runs = RunPadMany(points, inputs, sweep);
  for (size_t i = 0; i < sigmas.size(); ++i) {
    table.AddRow(bench::MetricsRow(FormatDouble(sigmas[i], 2), baseline, runs[i]));
    json.AddComparison("users=" + std::to_string(num_users) + " noise_sigma=" +
                           FormatDouble(sigmas[i], 2),
                       Comparison{baseline, runs[i]});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "E11: trained predictor for reference (time_of_day)");
  TextTable reference(bench::MetricsHeader("predictor"));
  PadConfig trained = config;
  trained.use_noisy_oracle = false;
  reference.AddRow(bench::MetricsRow("time_of_day", baseline, RunPad(trained, inputs)));
  reference.Print(std::cout);
}

}  // namespace

bench::Experiment bench::PredictionNoise(const Options& options) {
  return SweepExperiment(options, Run);
}

}  // namespace pad
