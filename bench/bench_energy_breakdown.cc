// E1 — The measurement study (paper §2): per-app energy breakdown of the
// top-15 free apps on 3G, and the two headline aggregates:
//   * ads ~= 65% of an app's communication energy,
//   * ads ~= 23% of an app's total energy.
#include "bench/bench_util.h"

#include "src/apps/workload.h"
#include "src/radio/machine.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

struct AppEnergy {
  EnergyReport radio;
  double local_j = 0.0;
  double foreground_h = 0.0;
};

void Run(int num_users, bench::BenchJson& json) {
  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationConfig population_config;
  population_config.num_users = num_users;
  population_config.horizon_s = 14.0 * kDay;
  population_config.num_apps = catalog.size();
  const Population population = GeneratePopulation(population_config);

  // Per-app accounting mirrors the paper's method: each app instrumented on
  // its own (a session's radio cool-down belongs to the app that ran).
  std::vector<AppEnergy> per_app(static_cast<size_t>(catalog.size()));
  const RadioProfile radio = ThreeGProfile();
  WorkloadOptions options;  // On-demand ads + app content.
  for (const UserTrace& user : population.users) {
    for (int app_id = 0; app_id < catalog.size(); ++app_id) {
      UserTrace only_this_app;
      only_this_app.user_id = user.user_id;
      for (const Session& session : user.sessions) {
        if (session.app_id == app_id) {
          only_this_app.sessions.push_back(session);
        }
      }
      if (only_this_app.sessions.empty()) {
        continue;
      }
      const UserWorkload workload = ExpandUser(catalog, only_this_app, options);
      AppEnergy& bucket = per_app[static_cast<size_t>(app_id)];
      bucket.radio.Merge(SimulateTransfers(radio, workload.transfers, population.horizon_s));
      bucket.local_j += workload.local_energy_j;
      bucket.foreground_h += workload.foreground_s / kHour;
    }
  }

  PrintBanner(std::cout, "E1: per-app energy breakdown (3G, " +
                             std::to_string(num_users) + " users, 2 weeks)");
  TextTable table({"app", "genre", "fg_hours", "ad_j", "content_j", "local_j",
                   "ad_share_comm", "ad_share_total"});
  EnergyBreakdown aggregate;
  for (int app_id = 0; app_id < catalog.size(); ++app_id) {
    const AppProfile& app = catalog.Get(app_id);
    const AppEnergy& bucket = per_app[static_cast<size_t>(app_id)];
    EnergyBreakdown breakdown;
    breakdown.radio = bucket.radio;
    breakdown.local_j = bucket.local_j;
    aggregate.radio.Merge(bucket.radio);
    aggregate.local_j += bucket.local_j;
    table.AddRow({app.name, app.genre, FormatDouble(bucket.foreground_h, 0),
                  FormatDouble(breakdown.AdEnergyJ(), 0),
                  FormatDouble(breakdown.radio.For(TrafficCategory::kAppContent).total_j(), 0),
                  FormatDouble(breakdown.local_j, 0), bench::Pct(breakdown.AdShareOfComm()),
                  bench::Pct(breakdown.AdShareOfTotal())});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "E1: aggregates (paper: 65% of communication, 23% of total)");
  TextTable summary({"metric", "measured", "paper"});
  summary.AddRow({"ads / communication energy", bench::Pct(aggregate.AdShareOfComm()), "65%"});
  summary.AddRow({"ads / total app energy", bench::Pct(aggregate.AdShareOfTotal()), "23%"});
  summary.Print(std::cout);

  const std::string label = "users=" + std::to_string(num_users) + " radio=3g";
  json.Add("ad_share_comm", aggregate.AdShareOfComm(), "fraction", label);
  json.Add("ad_share_total", aggregate.AdShareOfTotal(), "fraction", label);
  json.Add("ad_energy_j", aggregate.AdEnergyJ(), "J", label);
}

}  // namespace

bench::Experiment bench::EnergyBreakdown(const Options& options) {
  return UsersExperiment(options, 300, Run);
}

}  // namespace pad
