// adpad_sim — the configuration-driven experiment driver.
//
// Runs the baseline and/or PAD system on a synthetic (or externally loaded)
// trace and prints — or appends to a CSV — the metrics the paper reports.
//
//   $ adpad_sim users=400 days=21 deadline_h=3 predictor=time_of_day
//   $ adpad_sim --config experiment.conf csv_out=/tmp/results.csv
//   $ adpad_sim help=1            # points here
//
// Options (key=value; --config <file> loads one per line). Every path takes
// these model keys and threads=:
//   users, days, warmup_days, seed          trace shape (no users= in a
//                                           sweep; neither users= nor days=
//                                           with trace_in=, which takes both
//                                           from the trace)
//   radio=3g|lte|wifi, wifi_offload=bool    energy model
//   window_h, deadline_h                    prediction window T, deadline D
//   predictor=<name>, oracle_noise=<sigma>  client model
//   capacity_confidence, sla_target, max_replicas, overbooking_factor
//   num_segments, targeted_fraction, selectivity, capped_fraction,
//   budgeted_fraction, arrivals_per_day     market shape (arrivals default:
//                                           max(50, 1.5 x users))
//   fault_rate=r                            uniform fault injection: sets the
//                                           drop/fetch/sync/offline rates to r
//   fault_report_drop_rate, fault_report_delay_rate, fault_fetch_failure_rate,
//   fault_fetch_max_retries, fault_sync_miss_rate, fault_offline_rate,
//   fault_offline_window_h, fault_stale_decay   per-channel fault knobs
//                                           (applied on top of fault_rate)
//   market_users=N                          partition users into independent
//                                           markets of N (semantic; 0 = one
//                                           market = monolithic semantics)
//   skew_heavy_fraction=F                   heavy-cluster population skew:
//   skew_rate_multiplier=X                  the first F of users get X times
//                                           the session rate (semantic; the
//                                           E19 scheduler stress workload)
//   threads=N                               workers for the sweep, the
//                                           baseline ∥ PAD pair or the
//                                           engine's lanes (execution-only:
//                                           results identical; 0 = hw)
// The other keys belong to one path or two:
//   sweep_users=a,b,c                       sweep: paired run per population
//                                           size, fanned across `threads`;
//                                           each entry a positive whole number
//   mode=compare|pad|baseline               engine, monolithic: what to run
//                                           (the engine: compare or pad)
//   csv_out=<path>, label=<text>            engine, monolithic: append the
//                                           report's row, labelled, to a CSV
//   trace_in=<csv>                          monolithic: use an external trace
//   events_out=<path>                       monolithic: write PAD's event log
//   processes=N                             engine: fork N >= 1 worker
//                                           processes fed markets over pipes;
//                                           needs checkpoint= (their journals
//                                           carry the results). Execution-
//                                           only, even when workers are
//                                           killed mid-run
//   stall_kill_s=S                          engine, with processes=: SIGKILL
//                                           and reassign a worker stuck in one
//                                           market longer than S seconds
//                                           (0 = disabled)
//   schedule=stealing|static                engine: market hand-off policy
//                                           between lanes (execution-only;
//                                           default stealing; static for A/B)
//   steal_seed=N                            engine: steal victim-scan seed
//                                           (execution-only)
//   max_resident_users=N                    engine: resident-memory budget
//                                           (0 = unlimited)
//   checkpoint=<path>                       engine: journal each completed
//                                           market here and resume from it;
//                                           SIGINT/SIGTERM drains in-flight
//                                           markets, flushes the journal and
//                                           exits 130 with resume advice
//   checkpoint_fsync=bool                   engine: fsync each journal record
//                                           (default true; off trades crash
//                                           safety for throughput)
//   watchdog_s=S                            engine: report (to stderr) any
//                                           market running longer than S s
//
// sweep_users= picks the sweep; else market_users > 0 or any of
// max_resident_users=, checkpoint=, schedule=, processes= picks the engine;
// else the run is monolithic. Every single run, engine or monolithic, prints
// one report (table, fault line, ratios) and writes its csv_out= row. An
// unknown key, or one the chosen path would ignore, is an error (exit 1,
// `unknown option '<key>'`): a typo'd or misplaced knob would otherwise run
// the default silently.
//
// Exit codes: 0 ok, 1 invalid argument/config, 2 missing or unwritable file,
// 3 stale checkpoint (fingerprint mismatch), 4 corrupt data, 5 internal,
// 6 every worker process died before the run completed (completed markets
// are journaled; rerun the same command to resume), 130 interrupted by
// signal (journal flushed; rerun to resume).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/csv.h"
#include "src/common/options.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/task_scheduler.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"
#include "src/trace/trace_io.h"

namespace pad {
namespace {

// Flipped by SIGINT/SIGTERM; the shard engine polls it between markets.
// Lock-free atomic<bool> stores are async-signal-safe.
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

// Parses sweep_users strictly: every comma-separated entry is a whole
// decimal number >= 1, so "100k", "2e3", "0" and empty entries are errors
// rather than truncated sweeps. Returns false after naming the bad entry.
bool ParseUserCounts(const std::string& text, std::vector<int>* counts) {
  size_t start = 0;
  while (true) {
    const size_t end = std::min(text.find(',', start), text.size());
    const std::string_view entry(text.data() + start, end - start);
    int users = 0;
    const auto [last, error] = std::from_chars(entry.data(), entry.data() + entry.size(), users);
    if (error != std::errc() || last != entry.data() + entry.size() || users <= 0) {
      std::cerr << "adpad_sim: sweep_users entry '" << entry
                << "' is not a positive integer\n";
      return false;
    }
    counts->push_back(users);
    if (end == text.size()) {
      return true;
    }
    start = end + 1;
  }
}

// Campaign arrivals a day when arrivals_per_day= is left out: demand scales
// with supply, as in the benches.
double DefaultArrivalsPerDay(int users) { return std::max(50.0, 1.5 * users); }

// A paired comparison per population size, fanned out across the sweep
// engine. Campaign demand scales with supply unless the user pinned
// arrivals_per_day explicitly.
int RunUserSweep(const PadConfig& base, const std::vector<int>& user_counts,
                 bool arrivals_pinned, const SweepOptions& sweep) {
  std::vector<PadConfig> configs;
  configs.reserve(user_counts.size());
  for (int users : user_counts) {
    PadConfig point = base;
    point.population.num_users = users;
    if (!arrivals_pinned) {
      point.campaigns.arrivals_per_day = DefaultArrivalsPerDay(users);
    }
    configs.push_back(point);
  }
  const std::vector<Comparison> results = RunComparisonMany(configs, sweep);

  TextTable table({"users", "ad_energy_savings", "cache_hit", "sla_violation", "rev_loss",
                   "replication", "revenue_vs_baseline"});
  for (size_t i = 0; i < results.size(); ++i) {
    const Comparison& comparison = results[i];
    table.AddRow({std::to_string(user_counts[i]),
                  FormatDouble(100.0 * comparison.AdEnergySavings(), 1) + "%",
                  FormatDouble(100.0 * comparison.pad.service.CacheHitRate(), 1) + "%",
                  FormatDouble(100.0 * comparison.pad.ledger.SlaViolationRate(), 2) + "%",
                  FormatDouble(100.0 * comparison.pad.ledger.RevenueLossRate(), 2) + "%",
                  FormatDouble(comparison.pad.MeanReplication(), 2),
                  FormatDouble(100.0 * comparison.RevenueRatio(), 1) + "%"});
  }
  table.Print(std::cout);
  return 0;
}

bool PickPredictor(const std::string& name, PredictorKind* kind) {
  for (PredictorKind candidate : AllPredictorKinds()) {
    if (name == PredictorKindName(candidate)) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

// Reads the model keys every path takes into a config. The sweep passes its
// first population size in place of users=, which it would ignore. A
// trace_in= run takes its users and horizon from the trace (RunMonolithic
// sets both once it loads), so users= and days= are left unread there, and
// the unused-key check rejects them. Returns false after printing one line
// on a bad radio or predictor name.
bool ReadConfig(const Options& options, int sweep_users, PadConfig* out) {
  PadConfig& config = *out;
  if (!options.Has("trace_in")) {
    config.population.num_users = sweep_users > 0 ? sweep_users : options.GetInt("users", 200);
    config.population.horizon_s = options.GetDouble("days", 21.0) * kDay;
  }
  config.population.num_segments = options.GetInt("num_segments", 1);
  config.population.seed = static_cast<uint64_t>(options.GetInt("seed", 1234));
  config.warmup_days = options.GetInt("warmup_days", 7);
  config.prediction_window_s = options.GetDouble("window_h", 1.0) * kHour;
  config.deadline_s = options.GetDouble("deadline_h", 3.0) * kHour;
  config.capacity_confidence = options.GetDouble("capacity_confidence", 0.30);
  config.planner.sla_target = options.GetDouble("sla_target", 0.90);
  config.planner.max_replicas = options.GetInt("max_replicas", 2);
  config.overbooking_factor = options.GetDouble("overbooking_factor", -1.0);
  config.campaigns.arrivals_per_day = options.GetDouble(
      "arrivals_per_day", DefaultArrivalsPerDay(config.population.num_users));
  config.campaigns.targeted_fraction = options.GetDouble("targeted_fraction", 0.0);
  config.campaigns.segment_selectivity = options.GetDouble("selectivity", 0.25);
  config.campaigns.capped_fraction = options.GetDouble("capped_fraction", 0.0);
  config.campaigns.budgeted_fraction = options.GetDouble("budgeted_fraction", 0.0);
  config.wifi.enabled = options.GetBool("wifi_offload", false);
  config.market_users = options.GetInt("market_users", 0);
  config.population.skew_heavy_fraction = options.GetDouble("skew_heavy_fraction", 0.0);
  config.population.skew_rate_multiplier = options.GetDouble("skew_rate_multiplier", 1.0);

  if (options.Has("fault_rate")) {
    config.faults = FaultConfig::Uniform(options.GetDouble("fault_rate", 0.0));
  }
  config.faults.report_drop_rate =
      options.GetDouble("fault_report_drop_rate", config.faults.report_drop_rate);
  config.faults.report_delay_rate =
      options.GetDouble("fault_report_delay_rate", config.faults.report_delay_rate);
  config.faults.fetch_failure_rate =
      options.GetDouble("fault_fetch_failure_rate", config.faults.fetch_failure_rate);
  config.faults.fetch_max_retries =
      options.GetInt("fault_fetch_max_retries", config.faults.fetch_max_retries);
  config.faults.sync_miss_rate =
      options.GetDouble("fault_sync_miss_rate", config.faults.sync_miss_rate);
  config.faults.offline_rate =
      options.GetDouble("fault_offline_rate", config.faults.offline_rate);
  config.faults.offline_window_s =
      options.GetDouble("fault_offline_window_h", config.faults.offline_window_s / kHour) * kHour;
  config.faults.stale_decay = options.GetDouble("fault_stale_decay", config.faults.stale_decay);

  const std::string radio = options.GetString("radio", "3g");
  if (radio == "3g") {
    config.radio = ThreeGProfile();
  } else if (radio == "lte") {
    config.radio = LteProfile();
  } else if (radio == "wifi") {
    config.radio = WifiProfile();
  } else {
    std::cerr << "unknown radio '" << radio << "' (3g|lte|wifi)\n";
    return false;
  }

  const std::string predictor = options.GetString("predictor", "time_of_day");
  if (!PickPredictor(predictor, &config.predictor)) {
    std::cerr << "unknown predictor '" << predictor << "'; available:";
    for (PredictorKind kind : AllPredictorKinds()) {
      std::cerr << ' ' << PredictorKindName(kind);
    }
    std::cerr << '\n';
    return false;
  }
  // Any oracle_noise= turns the noisy oracle on; ValidateConfig checks its sigma.
  config.use_noisy_oracle = options.Has("oracle_noise");
  config.oracle_noise_sigma = options.GetDouble("oracle_noise", config.oracle_noise_sigma);
  return true;
}

// Called once the chosen path has read every key it takes: rejects a key it
// would ignore (or no path knows), a mistyped value, a bad config, then the
// engine's verdict on its options (`invalid_options`, empty off the engine),
// each with one line on stderr.
bool OptionsValid(const Options& options, const PadConfig& config,
                  const std::string& invalid_options) {
  for (const std::string& key : options.UnusedKeys()) {
    std::cerr << "unknown option '" << key << "'\n";
    return false;
  }
  // A mistyped value (users=ten) lands here, not in an abort: the getters
  // record the first type error and fall back to the default.
  if (!options.error().empty()) {
    std::cerr << "adpad_sim: " << options.error() << "\n";
    return false;
  }
  if (const std::string invalid = ValidateConfig(config); !invalid.empty()) {
    std::cerr << "adpad_sim: invalid config: " << invalid << "\n";
    return false;
  }
  if (!invalid_options.empty()) {
    std::cerr << "adpad_sim: invalid shard options: " << invalid_options << "\n";
    return false;
  }
  return true;
}

// The engine path: one ShardEngineOptions, validated once, one call into
// RunShardedResumable, which forks workers when processes > 0. Lazy
// per-market generation under a resident budget; identical results for any
// threads/schedule/max_resident_users/processes.
int RunEngine(const Options& options, const PadConfig& config, const std::string& mode,
              int threads, Comparison* result) {
  ShardEngineOptions engine;
  engine.threads = threads;
  engine.run_baseline = mode == "compare";
  const std::string schedule = options.GetString("schedule", "stealing");
  if (schedule == "stealing") {
    engine.schedule = ScheduleMode::kStealing;
  } else if (schedule == "static") {
    engine.schedule = ScheduleMode::kStatic;
  } else {
    std::cerr << "unknown schedule '" << schedule << "' (stealing|static)\n";
    return 1;
  }
  engine.steal_seed = static_cast<uint64_t>(options.GetInt("steal_seed", 0));
  engine.max_resident_users = options.GetInt("max_resident_users", 0);
  engine.checkpoint_path = options.GetString("checkpoint", "");
  engine.checkpoint_fsync = options.GetBool("checkpoint_fsync", true);
  engine.market_watchdog_s = options.GetDouble("watchdog_s", 0.0);
  if (engine.market_watchdog_s > 0.0) {
    engine.on_stall = [](int lane, int market, double elapsed_s) {
      std::cerr << "adpad_sim: watchdog: lane " << lane << " has been in market " << market
                << " for " << FormatDouble(elapsed_s, 1) << " s\n";
    };
  }
  engine.processes = options.GetInt("processes", 0);
  engine.stall_kill_s = options.GetDouble("stall_kill_s", 0.0);
  // processes= asks for forked workers; leaving it out is how to ask for lanes.
  if (!OptionsValid(options, config,
                    options.Has("processes") && engine.processes < 1
                        ? "processes must be at least 1"
                        : ValidateShardOptions(config, engine))) {
    return 1;
  }

  // Graceful shutdown: a signal drains in-flight markets (each lands in the
  // journal) instead of killing mid-write.
  engine.stop_requested = &g_stop_requested;
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  std::cout << "running streaming '" << mode << "': " << config.population.num_users
            << " users, market_users=" << config.market_users << ", threads=" << threads
            << ", max_resident_users=" << engine.max_resident_users;
  if (engine.processes > 0) {
    std::cout << ", processes=" << engine.processes;
  }
  if (!engine.checkpoint_path.empty()) {
    std::cout << ", checkpoint=" << engine.checkpoint_path;
  }
  std::cout << "\n";
  // No thread exists yet, so the coordinator may fork.
  StatusOr<ShardedComparison> run = RunShardedResumable(config, engine);
  if (!run.ok()) {
    std::cerr << "adpad_sim: " << run.status().ToString() << "\n";
    return ExitCodeFor(run.status());
  }
  if (run->resumed_markets > 0) {
    std::cout << "resumed " << run->resumed_markets << "/" << run->num_markets
              << " markets from " << engine.checkpoint_path << "\n";
  }
  if (run->workers_died > 0) {
    std::cerr << "adpad_sim: " << run->workers_died << " worker process(es) died; "
              << run->markets_reassigned
              << " market(s) reassigned (results unaffected: journals are the source of "
                 "truth)\n";
  }
  std::cout << "markets=" << run->num_markets << " sessions=" << run->total_sessions
            << " peak_resident_users=" << run->peak_resident_users
            << " generate_s=" << FormatDouble(run->generate_seconds, 2)
            << " simulate_s=" << FormatDouble(run->simulate_seconds, 2)
            << " peak_rss_mib=" << FormatDouble(PeakRssMib(), 1) << "\n";
  if (run->interrupted) {
    std::cerr << "adpad_sim: interrupted; " << run->market_pad_digests.size() << "/"
              << run->num_markets << " markets completed"
              << (engine.checkpoint_path.empty()
                      ? " (no checkpoint; completed work is lost)"
                      : " and journaled; rerun the same command to resume from " +
                            engine.checkpoint_path)
              << "\n";
    return 130;
  }
  *result = std::move(run->totals);
  return 0;
}

// The first user or session of a loaded trace that the run cannot take (a
// segment outside [0, num_segments), an app outside the catalog) as one
// line, or the empty string when all of them fit.
std::string TraceMisfit(const Population& trace, int num_segments) {
  const int apps = AppCatalog::TopFifteen().size();
  for (const UserTrace& user : trace.users) {
    if (user.segment < 0 || user.segment >= num_segments) {
      return "trace user " + std::to_string(user.user_id) + " has segment " +
             std::to_string(user.segment) + ", outside [0, " + std::to_string(num_segments) + ")";
    }
    for (const Session& session : user.sessions) {
      if (session.app_id < 0 || session.app_id >= apps) {
        return "trace user " + std::to_string(user.user_id) + " has app_id " +
               std::to_string(session.app_id) + ", outside the " + std::to_string(apps) +
               "-app catalog";
      }
    }
  }
  return "";
}

// The monolithic path: the whole population in memory, optionally loaded
// from trace_in=, with the full event log available to events_out=. A trace
// sets `config`'s user count and horizon, so the report describes the run.
int RunMonolithic(const Options& options, PadConfig& config, const std::string& mode, int threads,
                  Comparison* result) {
  const std::string trace_in = options.GetString("trace_in", "");
  const std::string events_out = options.GetString("events_out", "");
  const bool run_baseline = mode != "pad";
  const bool run_pad = mode != "baseline";

  // An external trace replaces the generated one, user count and horizon
  // included, so the config is validated at the trace's size and horizon
  // (and its default campaign arrivals follow the trace's user count). A
  // missing, malformed or misfitting trace is a user error with a one-line
  // diagnostic, never an abort.
  Population external;
  if (!trace_in.empty()) {
    std::cout << "loading trace from " << trace_in << "\n";
    StatusOr<Population> loaded = LoadTraceFile(trace_in);
    if (!loaded.ok()) {
      std::cerr << "adpad_sim: " << loaded.status().ToString() << "\n";
      return ExitCodeFor(loaded.status());
    }
    external = *std::move(loaded);
    config.population.num_users = static_cast<int>(external.users.size());
    config.population.horizon_s = external.horizon_s;
    if (!options.Has("arrivals_per_day")) {
      config.campaigns.arrivals_per_day = DefaultArrivalsPerDay(config.population.num_users);
    }
  }
  if (!OptionsValid(options, config, "")) {
    return 1;
  }
  if (const std::string misfit = TraceMisfit(external, config.population.num_segments);
      !misfit.empty()) {
    std::cerr << "adpad_sim: " << misfit << "\n";
    return 1;
  }
  SimInputs inputs = trace_in.empty()
                         ? GenerateInputs(config)
                         : SimInputs{std::move(external), AppCatalog::TopFifteen(),
                                     GenerateCampaignStream(AlignInputsConfig(config).campaigns)};

  std::cout << "running '" << mode << "': " << inputs.population.users.size() << " users, "
            << inputs.population.horizon_s / kDay << " trace days, radio=" << config.radio.name
            << ", predictor=" << PredictorKindName(config.predictor) << "\n";

  EventLog event_log;
  EventLog* pad_log = events_out.empty() ? nullptr : &event_log;
  // The halves of a comparison share only the read-only inputs, so they are
  // independent jobs for the scheduler; one worker runs them inline, in order.
  const int64_t jobs = (run_baseline ? 1 : 0) + (run_pad ? 1 : 0);
  RunTaskQueues(PartitionTasks(jobs, ResolveWorkers(threads, jobs)), [&](int, int64_t job) {
    if (run_baseline && job == 0) {
      result->baseline = RunBaseline(config, inputs);
    } else {
      result->pad = RunPad(config, inputs, pad_log);
    }
  });
  if (!events_out.empty() && run_pad) {
    std::ofstream out(events_out);
    if (!out.good()) {
      std::cerr << "cannot open " << events_out << "\n";
      return 1;
    }
    event_log.WriteCsv(out);
    std::cout << "wrote " << event_log.events().size() << " events to " << events_out << "\n";
  }
  return 0;
}

// The one report of a single run, whichever path produced it: the metric
// table, the fault line, the headline ratios, and the csv_out= row.
int Report(const PadConfig& config, const std::string& mode, const Comparison& result,
           const std::string& csv_out, const std::string& label) {
  const bool run_baseline = mode != "pad";
  const bool run_pad = mode != "baseline";
  const BaselineResult& baseline = result.baseline;
  const PadRunResult& pad = result.pad;
  TextTable table({"metric", "baseline", "pad"});
  auto cell = [&](bool present, double value, int precision) {
    return present ? FormatDouble(value, precision) : std::string("-");
  };
  table.AddRow({"ad energy (kJ)", cell(run_baseline, baseline.energy.AdEnergyJ() / 1000.0, 1),
                cell(run_pad, pad.energy.AdEnergyJ() / 1000.0, 1)});
  table.AddRow({"comm energy (kJ)",
                cell(run_baseline, baseline.energy.CommEnergyJ() / 1000.0, 1),
                cell(run_pad, pad.energy.CommEnergyJ() / 1000.0, 1)});
  table.AddRow({"billed revenue ($)", cell(run_baseline, baseline.ledger.billed_revenue, 2),
                cell(run_pad, pad.ledger.billed_revenue, 2)});
  table.AddRow({"SLA violation rate",
                cell(run_baseline, baseline.ledger.SlaViolationRate(), 4),
                cell(run_pad, pad.ledger.SlaViolationRate(), 4)});
  table.AddRow({"revenue loss rate",
                cell(run_baseline, baseline.ledger.RevenueLossRate(), 4),
                cell(run_pad, pad.ledger.RevenueLossRate(), 4)});
  table.AddRow({"cache hit rate", "-", cell(run_pad, pad.service.CacheHitRate(), 4)});
  table.AddRow({"mean replication", "-", cell(run_pad, pad.MeanReplication(), 2)});
  table.Print(std::cout);

  if (run_pad && config.faults.AnyEnabled()) {
    const FaultStats& faults = pad.faults;
    std::cout << "\nfault injection: reports dropped=" << faults.reports_dropped
              << " delayed=" << faults.reports_delayed
              << ", fetch failures=" << faults.fetch_failures
              << " (abandoned bundles=" << faults.bundles_abandoned << ")"
              << ", syncs missed=" << faults.syncs_missed
              << ", offline epochs=" << faults.offline_epochs << "\n";
  }

  if (mode == "compare") {
    std::cout << "\nad energy savings:   " << FormatDouble(100.0 * result.AdEnergySavings(), 1)
              << "%\n"
              << "revenue vs baseline: " << FormatDouble(100.0 * result.RevenueRatio(), 1)
              << "%\n";
  }

  if (!csv_out.empty()) {
    const bool fresh = !std::ifstream(csv_out).good();
    std::ofstream out(csv_out, std::ios::app);
    if (!out.good()) {
      std::cerr << "cannot open " << csv_out << " for append\n";
      return 1;
    }
    CsvWriter writer(out);
    if (fresh) {
      writer.WriteRow({"label", "mode", "users", "savings", "sla_violation", "rev_loss",
                       "cache_hit", "replication", "baseline_ad_j", "pad_ad_j",
                       "baseline_revenue", "pad_revenue"});
    }
    writer.WriteRow({label, mode, CsvWriter::Field(config.population.num_users),
                     CsvWriter::Field(mode == "compare" ? result.AdEnergySavings() : 0.0),
                     CsvWriter::Field(pad.ledger.SlaViolationRate()),
                     CsvWriter::Field(pad.ledger.RevenueLossRate()),
                     CsvWriter::Field(pad.service.CacheHitRate()),
                     CsvWriter::Field(pad.MeanReplication()),
                     CsvWriter::Field(baseline.energy.AdEnergyJ()),
                     CsvWriter::Field(pad.energy.AdEnergyJ()),
                     CsvWriter::Field(baseline.ledger.billed_revenue),
                     CsvWriter::Field(pad.ledger.billed_revenue)});
    std::cout << "appended row to " << csv_out << "\n";
  }
  return 0;
}

int RunTool(const Options& options) {
  if (options.GetBool("help", false)) {
    std::cout << "see the header comment of tools/adpad_sim.cc for the option list\n";
    return 0;
  }

  std::vector<int> user_counts;
  if (options.Has("sweep_users") &&
      !ParseUserCounts(options.GetString("sweep_users", ""), &user_counts)) {
    return 1;
  }
  PadConfig config;
  if (!ReadConfig(options, user_counts.empty() ? 0 : user_counts.front(), &config)) {
    return 1;
  }
  const int threads = options.GetInt("threads", 1);
  if (!user_counts.empty()) {
    if (!OptionsValid(options, config, "")) {
      return 1;
    }
    return RunUserSweep(config, user_counts, options.Has("arrivals_per_day"),
                        SweepOptions{.threads = threads});
  }

  const std::string mode = options.GetString("mode", "compare");
  const std::string csv_out = options.GetString("csv_out", "");
  const std::string label = options.GetString("label", "run");
  const bool use_engine = config.market_users > 0 || options.Has("max_resident_users") ||
                          options.Has("checkpoint") || options.Has("schedule") ||
                          options.Has("processes");
  if (mode != "compare" && mode != "pad" && (use_engine || mode != "baseline")) {
    std::cerr << "unknown mode '" << mode << "' ("
              << (use_engine ? "the streaming engine runs compare|pad" : "compare|pad|baseline")
              << ")\n";
    return 1;
  }
  Comparison result;
  if (const int code = use_engine ? RunEngine(options, config, mode, threads, &result)
                                  : RunMonolithic(options, config, mode, threads, &result);
      code != 0) {
    return code;
  }
  return Report(config, mode, result, csv_out, label);
}

}  // namespace
}  // namespace pad

int main(int argc, char** argv) {
  std::string error;
  const auto options = pad::Options::Parse(argc, argv, &error);
  if (!options.has_value()) {
    std::cerr << "adpad_sim: " << error << "\n";
    return 1;
  }
  return pad::RunTool(*options);
}
