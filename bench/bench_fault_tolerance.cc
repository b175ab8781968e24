// E16 (extension) — Fault tolerance: how gracefully does PAD degrade when
// the network misbehaves? The paper's evaluation assumes reports, bundles,
// and sync epochs all arrive; this harness injects deterministic faults
// (core/faults.h) at rising rates and regenerates the headline metrics at
// each rate, plus the fault accounting itself.
//
// Two sweeps:
//   * uniform — drop/fetch/sync/offline all at rate r (delayed reports at
//     r/2): the "bad network" axis. Sales shrink as the server's view of
//     client inventory goes stale, so revenue degrades but SLA quality is
//     defended by conservative selling.
//   * fetch+sync — only bundle fetches and cache syncs fail: sale volume is
//     untouched, so this isolates the energy-and-quality cost of faults
//     (wasted radio transfers, lost invalidations).
//
// Rate 0 is asserted (not just assumed) to be byte-identical to the
// fault-free run before any row prints.
#include "bench/bench_util.h"
#include "src/common/check.h"

namespace pad {
namespace {

const std::vector<double> kRates = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2};

std::vector<std::string> FaultRow(const std::string& label, const BaselineResult& baseline,
                                  const PadRunResult& pad) {
  std::vector<std::string> row = bench::MetricsRow(label, baseline, pad);
  row.push_back(std::to_string(pad.faults.reports_dropped));
  row.push_back(std::to_string(pad.faults.fetch_failures));
  row.push_back(std::to_string(pad.faults.syncs_missed));
  row.push_back(std::to_string(pad.faults.offline_epochs));
  return row;
}

std::vector<std::string> FaultHeader() {
  std::vector<std::string> header = bench::MetricsHeader("fault_rate");
  header.insert(header.end(), {"rep_drops", "fetch_fails", "sync_misses", "off_epochs"});
  return header;
}

void Run(int num_users, const SweepOptions& sweep, bench::BenchJson& json) {
  const PadConfig config = bench::StandardConfig(num_users);
  const SimInputs inputs = GenerateInputs(config);
  const BaselineResult baseline = RunBaseline(config, inputs);
  const PadRunResult fault_free = RunPad(config, inputs);

  PrintBanner(std::cout, "E16: uniform fault sweep (drop/fetch/sync/offline at r, delay r/2)");
  std::vector<PadConfig> uniform;
  for (double rate : kRates) {
    PadConfig point = config;
    point.faults = FaultConfig::Uniform(rate);
    point.faults.report_delay_rate = rate / 2.0;
    uniform.push_back(point);
  }
  std::vector<PadRunResult> runs = RunPadMany(uniform, inputs, sweep);
  // The fault layer must vanish at rate 0: same run, bit for bit.
  PAD_CHECK(MetricsDigest(runs[0]) == MetricsDigest(fault_free));
  TextTable table(FaultHeader());
  for (size_t i = 0; i < kRates.size(); ++i) {
    table.AddRow(FaultRow(FormatDouble(kRates[i], 2), baseline, runs[i]));
    json.AddComparison("users=" + std::to_string(num_users) + " sweep=uniform rate=" +
                           FormatDouble(kRates[i], 2),
                       Comparison{baseline, runs[i]});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "E16: fetch+sync faults only (sale-neutral, energy-wasting)");
  std::vector<PadConfig> partial;
  for (double rate : kRates) {
    PadConfig point = config;
    point.faults.fetch_failure_rate = rate;
    point.faults.sync_miss_rate = rate;
    partial.push_back(point);
  }
  runs = RunPadMany(partial, inputs, sweep);
  TextTable partial_table(FaultHeader());
  for (size_t i = 0; i < kRates.size(); ++i) {
    partial_table.AddRow(FaultRow(FormatDouble(kRates[i], 2), baseline, runs[i]));
  }
  partial_table.Print(std::cout);
}

}  // namespace

bench::Experiment bench::FaultTolerance(const Options& options) {
  return SweepExperiment(options, Run);
}

}  // namespace pad
