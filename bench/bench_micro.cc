// E12 — Engineering microbenchmarks (google-benchmark): throughput of the
// pieces that bound simulation scale, plus the exact-vs-approximate planner
// tail ablation called out in DESIGN.md §6.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/workload.h"
#include "src/auction/exchange.h"
#include "src/common/rng.h"
#include "src/core/pad_simulation.h"
#include "src/overbook/poisson_binomial.h"
#include "src/overbook/replication_planner.h"
#include "src/radio/machine.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

void BM_RngNextDouble(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextDouble());
  }
}
BENCHMARK(BM_RngNextDouble);

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(1);
  const double mean = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Poisson(mean));
  }
}
BENCHMARK(BM_RngPoisson)->Arg(3)->Arg(100);

void BM_RadioMachineSubmit(benchmark::State& state) {
  const RadioProfile profile = ThreeGProfile();
  RadioMachine machine(profile);
  double t = 0.0;
  for (auto _ : state) {
    machine.Submit(Transfer{t, 3072.0, Direction::kDownlink, TrafficCategory::kAdFetch});
    t += 30.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RadioMachineSubmit);

void BM_PoissonBinomialTail(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) {
    probs.push_back(rng.Uniform(0.1, 0.9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialTailGeq(probs, n / 2));
  }
}
BENCHMARK(BM_PoissonBinomialTail)->Arg(8)->Arg(32)->Arg(128);

void BM_PoissonBinomialTailNormal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<double> probs;
  for (int i = 0; i < n; ++i) {
    probs.push_back(rng.Uniform(0.1, 0.9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialTailGeqNormal(probs, n / 2));
  }
}
BENCHMARK(BM_PoissonBinomialTailNormal)->Arg(8)->Arg(32)->Arg(128);

void BM_PlannerPlanToTarget(benchmark::State& state) {
  PlannerConfig config;
  config.sla_target = 0.95;
  config.max_replicas = 8;
  ReplicationPlanner planner(config);
  Rng rng(3);
  std::vector<double> probs;
  for (int i = 0; i < 32; ++i) {
    probs.push_back(rng.Uniform(0.2, 0.95));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanToTarget(probs, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlannerPlanToTarget);

void BM_ExchangeSellSlots(benchmark::State& state) {
  CampaignStreamConfig config;
  config.horizon_s = 365.0 * kDay;
  config.arrivals_per_day = 500.0;
  const std::vector<Campaign> campaigns = GenerateCampaignStream(config);
  Exchange exchange(ExchangeConfig{}, campaigns);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exchange.SellSlots(t, 10));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_ExchangeSellSlots);

void BM_TraceGeneration(benchmark::State& state) {
  PopulationConfig config;
  config.num_users = static_cast<int>(state.range(0));
  config.horizon_s = 14.0 * kDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GeneratePopulation(config));
  }
}
BENCHMARK(BM_TraceGeneration)->Arg(10)->Arg(100);

void BM_WorkloadExpansion(benchmark::State& state) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationConfig config;
  config.num_users = 50;
  config.horizon_s = 14.0 * kDay;
  config.num_apps = catalog.size();
  const Population population = GeneratePopulation(config);
  WorkloadOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExpandPopulation(catalog, population, options));
  }
}
BENCHMARK(BM_WorkloadExpansion);

void BM_EndToEndQuickRun(benchmark::State& state) {
  PadConfig config = QuickConfig();
  config.population.num_users = 20;
  const SimInputs inputs = GenerateInputs(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPad(config, inputs));
  }
}
BENCHMARK(BM_EndToEndQuickRun)->Unit(benchmark::kMillisecond);

// Console reporter that also collects each benchmark's per-iteration real
// time into BenchRow JSON when `--json <path>` is given, so the micro suite
// feeds the same bench_compare gate as the end-to-end harnesses.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollector(bench::BenchJson* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration || run.iterations <= 0) {
        continue;
      }
      const double ns_per_iter =
          1e9 * run.real_accumulated_time / static_cast<double>(run.iterations);
      json_->Add(run.benchmark_name(), ns_per_iter, "ns/iter", "");
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  bench::BenchJson* json_;
};

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  // Take `--json <path>` (or `--json=<path>`) out before google-benchmark
  // parses the rest.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  pad::bench::BenchJson json("micro", json_path);
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  pad::JsonCollector reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.Flush() ? 0 : 1;
}
