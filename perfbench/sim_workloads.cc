// The two simulation workloads.
//
//   sim-m2000    RunShardedComparison: paired baseline + PAD over 2000-user
//                markets, 9 trace days (7 warm-up, 2 scored), event digests
//                on, 2 lanes, work stealing. The 1M-user run's market shape
//                and the costliest per user: ranking, event-log buffering and
//                digesting, and RunPad self time do most of their work here.
//   sim-m500-mp  RunMultiprocSharded: the same model over 500-user markets,
//                2 forked workers, event digests off, a fresh checkpoint
//                journal per call. Fork, IPC frames, fsync'd journal appends
//                and consolidation run only here.
//
// An untraced run repeats one engine call over the whole population on
// every lane for --seconds; every call must repeat the first one's
// per-market digests. The traced run makes two untraced calls
// (every lane, then one lane), then replays every market serially through
// the public calls SimulateMarket makes, with one span per call, and checks
// that each market's digests equal the untraced calls'.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/report.h"
#include "src/apps/workload.h"
#include "src/auction/campaign.h"
#include "src/core/checkpoint.h"
#include "src/core/event_log.h"
#include "src/core/multiproc_engine.h"
#include "src/core/pad_simulation.h"
#include "src/core/shard_engine.h"
#include "src/core/sweep.h"
#include "src/prediction/predictors.h"
#include "src/prediction/slot_series.h"
#include "src/radio/machine.h"
#include "src/trace/generator.h"

namespace perfbench {
namespace {

struct SimShape {
  bool multiproc = false;
  int64_t users = 0;         // Population of one full engine call.
  int64_t market_users = 0;  // Semantic market size.
  int lanes = 2;             // Threads (in-process) or worker processes.
  bool event_digests = false;
};

// Both populations give every lane several markets, so the scheduler's
// queues and the coordinator's hand-out both have work to balance.
SimShape ShapeFor(const RunArgs& args) {
  const bool tiny = args.scale == "tiny";
  if (args.workload == "sim-m2000") {
    return SimShape{false, tiny ? 80 : 8000, tiny ? 20 : 2000, 2, true};
  }
  return SimShape{true, tiny ? 80 : 12000, tiny ? 10 : 500, 2, false};
}

// Engine calls an untraced run makes at the least, however slow the host.
constexpr int kMinCalls = 3;

// Combined digests of the engine call at kDefaultSeed, pinned.
struct Pin {
  const char* workload;
  const char* scale;
  uint64_t pad;
  uint64_t baseline;
  uint64_t event;  // 0 when event digests are off.
};
constexpr Pin kPins[] = {
    {"sim-m2000", "full", 9061107259764360792ull, 15255457775239292188ull, 12366424637907807280ull},
    {"sim-m2000", "tiny", 5319512236333726403ull, 5098637208183145203ull, 13624061025690994066ull},
    {"sim-m500-mp", "full", 5202050745495007327ull, 11870669710288753578ull, 0},
    {"sim-m500-mp", "tiny", 1010246464210801531ull, 6404283774088335858ull, 0},
};

// bench_util's StandardConfig at 9 trace days, with every seed derived from
// the benchmark seed.
pad::PadConfig SimConfig(const SimShape& shape, int64_t users, uint64_t seed) {
  pad::PadConfig config;
  config.population.num_users = static_cast<int>(users);
  config.population.horizon_s = 9.0 * pad::kDay;
  config.warmup_days = 7;
  config.campaigns.arrivals_per_day = std::max(50.0, 1.5 * static_cast<double>(users));
  config.market_users = shape.market_users;
  config.population.seed = seed;
  config.campaigns.seed = SplitMix64(seed ^ 0xca3a1e5ull);
  config.seed = SplitMix64(seed ^ 0x5eedull);
  return config;
}

// The per-market config exactly as the shard engine derives it: the market's
// own client count, and a campaign stream scaled to its population share
// with a seed decorrelated per market.
pad::PadConfig MarketConfigFor(const pad::PadConfig& aligned,
                               const std::vector<int64_t>& boundaries, int market) {
  const int num_markets = static_cast<int>(boundaries.size()) - 1;
  const int64_t lo = boundaries[static_cast<size_t>(market)];
  const int64_t hi = boundaries[static_cast<size_t>(market) + 1];
  pad::PadConfig config = aligned;
  config.population.num_users = static_cast<int>(hi - lo);
  if (num_markets > 1) {
    uint64_t state = aligned.campaigns.seed + 0xadc0de5ull * static_cast<uint64_t>(market + 1);
    config.campaigns.seed = SplitMix64(state);
    config.campaigns.arrivals_per_day = aligned.campaigns.arrivals_per_day *
                                        static_cast<double>(hi - lo) /
                                        static_cast<double>(boundaries.back());
  }
  return config;
}

std::string JournalPath(const RunArgs& args, const char* name) {
  return args.work_dir + "/" + args.workload + "-" + name + ".ckpt";
}

void RemoveJournals(const std::string& path, int workers) {
  unlink(path.c_str());
  for (int w = 0; w < workers; ++w) {
    unlink(pad::WorkerJournalPath(path, w).c_str());
  }
}

pad::MultiprocEngineOptions MultiprocOptions(const SimShape& shape, int lanes,
                                             const std::string& journal) {
  pad::MultiprocEngineOptions options;
  options.processes = lanes;
  options.engine.event_digests = shape.event_digests;
  options.engine.checkpoint_path = journal;
  return options;
}

pad::ShardEngineOptions ShardOptions(const SimShape& shape, int lanes) {
  pad::ShardEngineOptions options;
  options.threads = lanes;
  options.schedule = pad::ScheduleMode::kStealing;
  options.event_digests = shape.event_digests;
  return options;
}

std::string ValidateShape(const SimShape& shape, const pad::PadConfig& config,
                          const std::string& journal) {
  return shape.multiproc
             ? pad::ValidateMultiprocOptions(config, MultiprocOptions(shape, shape.lanes, journal))
             : pad::ValidateShardOptions(config, ShardOptions(shape, shape.lanes));
}

struct EngineCall {
  pad::ShardedComparison result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

// One engine call through its public entry point. The multi-process engine
// starts from a fresh journal every time: a leftover one would be resumed.
pad::StatusOr<EngineCall> RunEngine(const SimShape& shape, const pad::PadConfig& config,
                                    int lanes, const std::string& journal) {
  EngineCall call;
  if (shape.multiproc) {
    RemoveJournals(journal, lanes);
  }
  const double wall_start = NowS();
  const double cpu_start = ProcessCpuS();
  if (shape.multiproc) {
    pad::StatusOr<pad::ShardedComparison> result =
        pad::RunMultiprocSharded(config, MultiprocOptions(shape, lanes, journal));
    if (!result.ok()) {
      return result.status();
    }
    call.result = *std::move(result);
  } else {
    call.result = pad::RunShardedComparison(config, ShardOptions(shape, lanes));
  }
  call.wall_s = NowS() - wall_start;
  call.cpu_s = ProcessCpuS() - cpu_start;
  if (shape.multiproc) {
    RemoveJournals(journal, lanes);
  }
  return call;
}

// The accounting identities every run must satisfy, whatever the seed.
void CheckIdentities(const pad::ShardedComparison& run, const std::string& label,
                     Outcome* outcome) {
  const pad::ServiceStats& pad_service = run.totals.pad.service;
  const pad::ServiceStats& base_service = run.totals.baseline.service;
  outcome->Check(pad_service.slots == pad_service.served_from_cache +
                                          pad_service.fallback_fetches + pad_service.unfilled,
                 label + ": PAD slots != cache + fallback + unfilled");
  outcome->Check(base_service.slots == base_service.fallback_fetches + base_service.unfilled,
                 label + ": baseline slots != fallback + unfilled");
  for (const auto& [name, ledger] : {std::pair{"PAD", run.totals.pad.ledger},
                                     std::pair{"baseline", run.totals.baseline.ledger}}) {
    outcome->Check(ledger.displays == ledger.billed + ledger.excess_displays,
                   label + ": " + name + " displays != billed + excess");
    outcome->Check(ledger.sold == ledger.billed + ledger.violated,
                   label + ": " + name + " sold != billed + violated");
  }
  outcome->Check(!run.interrupted && run.resumed_markets == 0,
                 label + ": the engine call was interrupted or resumed");
}

const Pin* FindPin(const RunArgs& args) {
  for (const Pin& pin : kPins) {
    if (args.workload == pin.workload && args.scale == pin.scale) {
      return &pin;
    }
  }
  return nullptr;
}

void CheckPinned(const RunArgs& args, const pad::ShardedComparison& run, Outcome* outcome) {
  if (args.seed != kDefaultSeed) {
    return;
  }
  const Pin* pin = FindPin(args);
  const uint64_t flip = args.perturb_pin ? 1 : 0;
  outcome->Check(pin != nullptr && run.combined_pad_digest == (pin->pad ^ flip) &&
                     run.combined_baseline_digest == pin->baseline &&
                     run.combined_event_digest == pin->event,
                 "combined digests " + std::to_string(run.combined_pad_digest) + "/" +
                     std::to_string(run.combined_baseline_digest) + "/" +
                     std::to_string(run.combined_event_digest) +
                     " differ from the values pinned for the default seed");
}

// Per-market digests of `run` must equal those of the same markets in
// `reference`, the first full call on the same seed. Returns the number of
// markets that matched.
int64_t VerifiedMarkets(const pad::ShardedComparison& run, const pad::ShardedComparison& reference,
                        const std::string& label, Outcome* outcome) {
  int64_t verified = 0;
  for (int m = 0; m < run.num_markets; ++m) {
    const auto same = [m](const std::vector<uint64_t>& got, const std::vector<uint64_t>& want) {
      const size_t i = static_cast<size_t>(m);
      return (i < got.size()) == (i < want.size()) && (i >= got.size() || got[i] == want[i]);
    };
    const bool ok = m < reference.num_markets &&
                    same(run.market_pad_digests, reference.market_pad_digests) &&
                    same(run.market_baseline_digests, reference.market_baseline_digests) &&
                    same(run.market_event_digests, reference.market_event_digests);
    outcome->Check(ok, label + ": market " + std::to_string(m) +
                           " digests differ from the first full call's");
    verified += ok ? 1 : 0;
  }
  return verified;
}

// Largest and mean per-lane sums of market thread-CPU seconds.
std::pair<double, double> LaneBusy(const pad::ShardedComparison& run) {
  std::vector<double> per_lane;
  for (size_t m = 0; m < run.market_busy_s.size(); ++m) {
    const int lane = run.market_workers[m];
    if (lane < 0) {
      continue;
    }
    if (per_lane.size() <= static_cast<size_t>(lane)) {
      per_lane.resize(static_cast<size_t>(lane) + 1, 0.0);
    }
    per_lane[static_cast<size_t>(lane)] += run.market_busy_s[m];
  }
  double largest = 0.0;
  double sum = 0.0;
  int used = 0;
  for (const double busy : per_lane) {
    largest = std::max(largest, busy);
    sum += busy;
    used += busy > 0.0 ? 1 : 0;
  }
  return {largest, used > 0 ? sum / used : 0.0};
}

Outcome RunUntraced(const RunArgs& args, const SimShape& shape) {
  Outcome outcome;
  const pad::PadConfig config = SimConfig(shape, shape.users, args.seed);
  const std::string journal = JournalPath(args, "full");
  if (const std::string error = ValidateShape(shape, config, journal); !error.empty()) {
    outcome.Check(false, "invalid config: " + error);
    return outcome;
  }

  const EnvSample env_start = SampleEnv();
  const double start = NowS();
  std::vector<double> users_per_s, cpu_ms_per_user, generate_s, market_us, lane_us, capacity;
  double peak_rss_mib = 0.0;
  pad::ShardedComparison reference;
  int64_t verified = 0;
  for (int call = 0;; ++call) {
    const double call_start = NowS();
    pad::StatusOr<EngineCall> full = RunEngine(shape, config, shape.lanes, journal);
    if (!full.ok()) {
      outcome.Check(false, "engine call failed: " + full.status().ToString());
      return outcome;
    }
    const std::string label = "call " + std::to_string(call);
    CheckIdentities(full->result, label, &outcome);
    if (call == 0) {
      CheckPinned(args, full->result, &outcome);
      reference = full->result;
      // One call's peak: later calls reuse the memory the first one freed,
      // and workers forked from a grown coordinator would count its pages.
      peak_rss_mib = PeakRssMib();
    }
    // Every call repeats the first one's per-market digests.
    verified += VerifiedMarkets(full->result, reference, label, &outcome);
    outcome.attempted += full->result.num_markets;

    const double users = static_cast<double>(full->result.total_users);
    double busy_s = 0.0;
    for (const double market_s : full->result.market_busy_s) {
      busy_s += market_s;
    }
    users_per_s.push_back(users / full->wall_s);
    cpu_ms_per_user.push_back(full->cpu_s * 1000.0 / users);
    // The engine's own clock on a market's set-up: seeking the population
    // stream and generating the market's traces and campaign stream.
    generate_s.push_back(full->result.generate_seconds / full->result.num_markets);
    // A user's latency on a lane: its share of the markets' thread-CPU
    // (the work alone), and of the lanes' wall time (the work plus
    // coordination, imbalance and waiting).
    market_us.push_back(busy_s * 1e6 / users);
    lane_us.push_back(full->wall_s * shape.lanes * 1e6 / users);
    // The rate the lanes would sustain if their busy time were perfectly
    // balanced and nothing else ran: users per mean lane-busy second.
    capacity.push_back(users / LaneBusy(full->result).second);

    // End at the call boundary nearest to --seconds, after at least
    // kMinCalls calls so that every median has a middle.
    const double now = NowS();
    if (!outcome.problems.empty() ||
        (call + 1 >= kMinCalls && now - start + 0.5 * (now - call_start) > args.seconds)) {
      break;
    }
  }
  AddEnvMetrics(env_start, SampleEnv(), false, &outcome);
  outcome.failed = outcome.attempted - verified;

  outcome.Set("users_per_s", Median(users_per_s));
  outcome.Set("cpu_ms_per_user", Median(cpu_ms_per_user));
  outcome.Set("peak_rss_mib", peak_rss_mib);
  outcome.Set("success_rate",
              static_cast<double>(verified) / static_cast<double>(outcome.attempted));
  outcome.Set("setup_s", Median(generate_s));
  outcome.Set("p50_us_low", Median(market_us));
  outcome.Set("p50_us_high", Median(lane_us));
  outcome.Set("capacity_qps", Median(capacity));
  pad::JsonValue per_call = pad::JsonValue::Array();
  for (const double rate : users_per_s) {
    per_call.Append(pad::JsonValue(rate));
  }
  outcome.params.Set("users_per_s_per_call", std::move(per_call));
  return outcome;
}

// Per-layer accumulators of the traced pass.
struct LayerTotals {
  int64_t sessions = 0;
  int64_t slots_pad = 0;
  int64_t slots_baseline = 0;
  int64_t transfers_replayed = 0;
  int64_t events = 0;
  int64_t journal_bytes = 0;
  double core_cpu_s = 0.0;  // Thread CPU of the SimulateMarket-equivalent calls.
};

// Replays one market's users through the layers RunBaseline and RunPad call
// internally: workload expansion (both runners' options), predictor warm-up,
// and the baseline radio fold. Checks the counts against the runners' own.
void ReplayLayers(const pad::SimContext& context, const pad::SimInputs& inputs,
                  const pad::MarketRecord& record, int market, int parent, SpanRecorder* spans,
                  LayerTotals* totals, Outcome* outcome) {
  const pad::PadConfig& config = context.config;
  const double horizon = inputs.population.horizon_s;
  pad::WorkloadOptions baseline_options;
  baseline_options.min_session_start = context.t0;
  pad::WorkloadOptions feed_options;
  feed_options.on_demand_ads = false;
  feed_options.min_session_start = context.t0;
  pad::WorkloadOptions slot_options;
  slot_options.on_demand_ads = false;
  slot_options.app_content = false;

  pad::UserWorkload baseline, feed, slots;
  pad::RadioMachine cell(config.radio);
  int64_t slots_pad = 0, slots_baseline = 0, radio_transfers = 0;
  for (const pad::UserTrace& user : inputs.population.users) {
    {
      ScopedSpan span(spans, "apps.expand", market, parent);
      pad::ExpandUserInto(inputs.catalog, user, baseline_options, baseline);
      pad::ExpandUserInto(inputs.catalog, user, feed_options, feed);
      pad::ExpandUserInto(inputs.catalog, user, slot_options, slots);
    }
    slots_baseline += static_cast<int64_t>(baseline.slots.size());
    slots_pad += static_cast<int64_t>(feed.slots.size());
    {
      ScopedSpan span(spans, "prediction.warm", market, parent);
      const pad::SlotSeries series = pad::BinSlots(slots.slots, horizon, context.window_s);
      std::unique_ptr<pad::SlotPredictor> predictor =
          pad::MakePredictor(config.predictor, series.WindowsPerDay());
      for (int w = 0; w < context.warmup_windows && w < series.num_windows(); ++w) {
        predictor->Observe(w, series.counts[static_cast<size_t>(w)]);
      }
    }
    {
      ScopedSpan span(spans, "radio.fold", market, parent);
      cell.Reset();
      cell.SubmitAll(baseline.transfers);
      cell.Finalize(std::max(horizon, cell.busy_until()));
    }
    radio_transfers += cell.report().total_transfers();
  }
  const std::string label = "market " + std::to_string(market);
  outcome->Check(slots_baseline == record.baseline.service.slots,
                 label + ": replayed baseline slots differ from RunBaseline's");
  outcome->Check(slots_pad == record.pad.service.slots,
                 label + ": replayed PAD slots differ from RunPad's");
  outcome->Check(radio_transfers == record.baseline.energy.radio.total_transfers(),
                 label + ": replayed radio transfers differ from RunBaseline's");
  totals->slots_pad += slots_pad;
  totals->slots_baseline += slots_baseline;
  totals->transfers_replayed += radio_transfers;
}

// Records `log`'s events again into a fresh log through the calls RunPad's
// observers make: the buffering cost of the event log, without the noise of
// differencing two whole RunPad runs (that difference was smaller than the
// run-to-run spread, sometimes negative).
pad::EventLog RecordAgain(const pad::EventLog& log, int market, int parent, SpanRecorder* spans) {
  pad::EventLog again;
  ScopedSpan span(spans, "event_log.record", market, parent);
  for (const pad::SimEvent& event : log.events()) {
    switch (event.type) {
      case pad::SimEventType::kSale:
        again.OnSale(event.time, event.impression_id, event.campaign_id, event.value);
        break;
      case pad::SimEventType::kDispatch:
      case pad::SimEventType::kRescue:
        again.OnDispatch(event.time, event.impression_id, event.campaign_id, event.client_id,
                         event.type == pad::SimEventType::kRescue);
        break;
      case pad::SimEventType::kBilledDisplay:
        again.OnBilledDisplay(event.time, event.impression_id, event.campaign_id, event.value);
        break;
      case pad::SimEventType::kExcessDisplay:
        again.OnExcessDisplay(event.time, event.impression_id);
        break;
      case pad::SimEventType::kViolation:
        again.OnViolation(event.time, event.impression_id, event.campaign_id, event.value);
        break;
      default:
        again.OnFault(event.time, event.type, event.client_id);
        break;
    }
  }
  return again;
}

void CheckEventLog(const pad::EventLog& log, const pad::LedgerTotals& ledger, int market,
                   Outcome* outcome) {
  const std::string label = "market " + std::to_string(market) + ": event log ";
  outcome->Check(log.CountOf(pad::SimEventType::kSale) == ledger.sold, label + "sales != sold");
  outcome->Check(log.CountOf(pad::SimEventType::kBilledDisplay) == ledger.billed,
                 label + "billed displays != billed");
  outcome->Check(log.CountOf(pad::SimEventType::kViolation) == ledger.violated,
                 label + "violations != violated");
  outcome->Check(log.CountOf(pad::SimEventType::kExcessDisplay) == ledger.excess_displays,
                 label + "excess displays != excess");
}

int64_t FileBytes(const std::string& path) {
  struct stat info {};
  return stat(path.c_str(), &info) == 0 ? static_cast<int64_t>(info.st_size) : -1;
}

Outcome RunTraced(const RunArgs& args, const SimShape& shape) {
  Outcome outcome;
  const pad::PadConfig config = SimConfig(shape, shape.users, args.seed);
  const std::string journal = JournalPath(args, "full");
  const std::string trace_journal = JournalPath(args, "trace");
  if (const std::string error = ValidateShape(shape, config, journal); !error.empty()) {
    outcome.Check(false, "invalid config: " + error);
    return outcome;
  }
  const EnvSample env_start = SampleEnv();

  // The untraced reference call: E2E-run metrics and the digests the traced
  // pass must reproduce.
  pad::StatusOr<EngineCall> untraced = RunEngine(shape, config, shape.lanes, journal);
  if (!untraced.ok()) {
    outcome.Check(false, "engine call failed: " + untraced.status().ToString());
    return outcome;
  }
  const pad::ShardedComparison& reference = untraced->result;
  CheckIdentities(reference, "untraced call", &outcome);
  CheckPinned(args, reference, &outcome);
  // The same markets untraced on one lane, one at a time as the traced pass
  // runs them: the base of tracing.overhead_frac.
  pad::StatusOr<EngineCall> serial = RunEngine(shape, config, 1, journal);
  if (!serial.ok()) {
    outcome.Check(false, "engine call failed: " + serial.status().ToString());
    return outcome;
  }
  CheckIdentities(serial->result, "untraced one-lane call", &outcome);
  VerifiedMarkets(serial->result, reference, "untraced one-lane call", &outcome);

  SpanRecorder spans;
  const pad::PadConfig aligned = pad::AlignInputsConfig(config);
  const std::vector<int64_t> boundaries =
      pad::MarketBoundaries(aligned.population.num_users, aligned.market_users);
  const int markets = static_cast<int>(boundaries.size()) - 1;
  pad::PopulationStream stream(aligned.population);
  std::vector<pad::MarketRecord> records(static_cast<size_t>(markets));
  std::unique_ptr<pad::CheckpointWriter> writer;
  int64_t header_bytes = 0;
  if (shape.multiproc) {
    unlink(trace_journal.c_str());
    pad::StatusOr<std::unique_ptr<pad::CheckpointWriter>> created = pad::CheckpointWriter::Create(
        trace_journal, pad::JournalHeaderFor(aligned, markets, true, false), true);
    if (!created.ok()) {
      outcome.Check(false, created.status().ToString());
      return outcome;
    }
    writer = *std::move(created);
    header_bytes = FileBytes(trace_journal);
  }

  LayerTotals totals;
  for (int m = 0; m < markets; ++m) {
    ScopedSpan market_span(&spans, "market", m);
    const int root = market_span.id();
    const int64_t lo = boundaries[static_cast<size_t>(m)];
    const int64_t hi = boundaries[static_cast<size_t>(m) + 1];
    pad::MarketRecord& record = records[static_cast<size_t>(m)];
    record.market = m;
    const double core_start = ThreadCpuS();

    pad::Population population;
    {
      ScopedSpan span(&spans, "trace.generate", m, root);
      stream.SeekUsers(lo);
      population = stream.NextBlock(hi - lo);
    }
    const pad::PadConfig market_config = MarketConfigFor(aligned, boundaries, m);
    std::vector<pad::Campaign> campaigns;
    {
      ScopedSpan span(&spans, "auction.campaigns", m, root);
      campaigns = pad::GenerateCampaignStream(market_config.campaigns);
    }
    pad::SimInputs inputs{std::move(population), pad::AppCatalog::TopFifteen(),
                          std::move(campaigns)};
    for (const pad::UserTrace& user : inputs.population.users) {
      record.sessions += static_cast<int64_t>(user.sessions.size());
    }
    pad::SimContext context;
    {
      ScopedSpan span(&spans, "core.context", m, root);
      context = pad::MakeSimContext(market_config);
    }
    {
      ScopedSpan span(&spans, "core.baseline", m, root);
      record.baseline = pad::RunBaseline(context, inputs);
    }
    {
      ScopedSpan span(&spans, "core.digest", m, root);
      record.baseline_digest = pad::MetricsDigest(record.baseline);
    }
    pad::EventLog log;
    {
      ScopedSpan span(&spans, "core.pad", m, root);
      record.pad = pad::RunPad(context, inputs, shape.event_digests ? &log : nullptr);
    }
    {
      ScopedSpan span(&spans, "core.digest", m, root);
      record.pad_digest = pad::MetricsDigest(record.pad);
    }
    if (shape.event_digests) {
      ScopedSpan span(&spans, "event_log.digest", m, root);
      record.event_digest = log.Digest();
    }
    totals.core_cpu_s += ThreadCpuS() - core_start;
    totals.sessions += record.sessions;
    if (shape.event_digests) {
      // Recording the events must not change the run.
      pad::PadRunResult unlogged;
      {
        ScopedSpan span(&spans, "core.pad_unlogged", m, root);
        unlogged = pad::RunPad(context, inputs, nullptr);
      }
      outcome.Check(pad::MetricsDigest(unlogged) == record.pad_digest,
                    "market " + std::to_string(m) +
                        ": RunPad without the event log digests differently");
    }

    if (writer != nullptr) {
      ScopedSpan span(&spans, "checkpoint.append", m, root);
      const pad::Status appended = writer->Append(record);
      outcome.Check(appended.ok(), "journal append: " + appended.ToString());
    }
    if (shape.event_digests) {
      CheckEventLog(log, record.pad.ledger, m, &outcome);
      totals.events += static_cast<int64_t>(log.events().size());
      outcome.Check(RecordAgain(log, m, root, &spans).Digest() == record.event_digest,
                    "market " + std::to_string(m) + ": re-recorded event log digests differently");
    }
    ReplayLayers(context, inputs, record, m, root, &spans, &totals, &outcome);
  }
  if (writer != nullptr) {
    writer.reset();
    totals.journal_bytes = FileBytes(trace_journal) - header_bytes;
    ScopedSpan span(&spans, "checkpoint.read", -1);
    pad::StatusOr<pad::CheckpointContents> contents = pad::ReadCheckpoint(trace_journal);
    outcome.Check(contents.ok() && !contents->truncated() &&
                      contents->markets.size() == static_cast<size_t>(markets),
                  "the traced journal does not read back whole");
  }
  pad::ShardedComparison merged;
  {
    ScopedSpan span(&spans, "core.fold", -1);
    pad::FoldMarketRecords(records, true, shape.event_digests, &merged);
  }
  unlink(trace_journal.c_str());

  outcome.Check(merged.market_pad_digests == reference.market_pad_digests &&
                    merged.market_baseline_digests == reference.market_baseline_digests &&
                    merged.market_event_digests == reference.market_event_digests,
                "traced per-market digests differ from the untraced engine call's");
  outcome.Check(merged.total_sessions == reference.total_sessions,
                "traced session count differs from the untraced engine call's");
  outcome.attempted = markets;
  outcome.failed = outcome.problems.empty() ? 0 : markets;

  const double users = static_cast<double>(aligned.population.num_users);
  const auto ms_per_user = [&](const char* name) { return spans.TotalS(name) * 1000.0 / users; };
  const pad::PadRunResult& pad_totals = merged.totals.pad;
  outcome.Set("trace.generate_ms_per_user", ms_per_user("trace.generate"));
  outcome.Set("trace.sessions", static_cast<double>(totals.sessions));
  outcome.Set("apps.expand_ms_per_user", ms_per_user("apps.expand"));
  outcome.Set("apps.slots_pad", static_cast<double>(totals.slots_pad));
  outcome.Set("apps.slots_baseline", static_cast<double>(totals.slots_baseline));
  outcome.Set("prediction.warm_ms_per_user", ms_per_user("prediction.warm"));
  outcome.Set("radio.fold_ms_per_user", ms_per_user("radio.fold"));
  outcome.Set("radio.transfers_pad",
              static_cast<double>(pad_totals.energy.radio.total_transfers()));
  outcome.Set("radio.transfers_baseline", static_cast<double>(totals.transfers_replayed));
  outcome.Set("auction.campaigns_ms_per_market",
              spans.TotalS("auction.campaigns") * 1000.0 / markets);
  outcome.Set("auction.sold", static_cast<double>(pad_totals.ledger.sold));
  outcome.Set("auction.billed", static_cast<double>(pad_totals.ledger.billed));
  outcome.Set("auction.violated", static_cast<double>(pad_totals.ledger.violated));
  outcome.Set("auction.excess_displays", static_cast<double>(pad_totals.ledger.excess_displays));
  outcome.Set("auction.excess_share", pad_totals.ledger.RevenueLossRate());
  outcome.Set("overbook.dispatched", static_cast<double>(pad_totals.impressions_dispatched));
  outcome.Set("overbook.replication", pad_totals.MeanReplication());
  outcome.Set("core.baseline_ms_per_user", ms_per_user("core.baseline"));
  outcome.Set("core.pad_ms_per_user", ms_per_user("core.pad"));
  outcome.Set("core.cache_hit_rate", pad_totals.service.CacheHitRate());
  outcome.Set("core.fallback_fetches", static_cast<double>(pad_totals.service.fallback_fetches));
  outcome.Set("core.market_cpu_s_p50", Median(reference.market_busy_s));
  outcome.Set("core.market_cpu_s_max", Quantile(reference.market_busy_s, 1.0));
  if (shape.event_digests) {
    outcome.Set("event_log.record_ms_per_user", ms_per_user("event_log.record"));
    outcome.Set("event_log.digest_ms_per_user", ms_per_user("event_log.digest"));
    outcome.Set("event_log.events", static_cast<double>(totals.events));
  }
  if (shape.multiproc) {
    outcome.Set("checkpoint.append_ms_per_market",
                spans.TotalS("checkpoint.append") * 1000.0 / markets);
    outcome.Set("checkpoint.read_ms_per_market",
                spans.TotalS("checkpoint.read") * 1000.0 / markets);
    outcome.Set("checkpoint.bytes_per_market",
                static_cast<double>(totals.journal_bytes) / markets);
  }
  const auto [largest, mean] = LaneBusy(reference);
  outcome.Set("multiproc.coordination_s", untraced->wall_s - largest);
  outcome.Set("scheduler.lane_imbalance", mean > 0.0 ? largest / mean : 0.0);
  outcome.Set("scheduler.tasks_stolen", static_cast<double>(reference.tasks_stolen));
  double untraced_busy = 0.0;
  for (const double busy : serial->result.market_busy_s) {
    untraced_busy += busy;
  }
  outcome.Set("tracing.overhead_frac", totals.core_cpu_s / untraced_busy - 1.0);
  AddEnvMetrics(env_start, SampleEnv(), true, &outcome);

  std::string error;
  const std::string span_path = args.work_dir + "/" + args.workload + "-spans.json";
  outcome.Check(spans.WriteJson(span_path, &error), error);
  outcome.params.Set("span_file", pad::JsonValue(span_path));
  return outcome;
}

}  // namespace

Outcome RunSimWorkload(const RunArgs& args) {
  const SimShape shape = ShapeFor(args);
  Outcome outcome = args.trace ? RunTraced(args, shape) : RunUntraced(args, shape);
  outcome.params.Set("engine", pad::JsonValue(shape.multiproc ? "RunMultiprocSharded"
                                                              : "RunShardedComparison"));
  outcome.params.Set("users", pad::JsonValue(shape.users));
  outcome.params.Set("market_users", pad::JsonValue(shape.market_users));
  outcome.params.Set("lanes", pad::JsonValue(shape.lanes));
  outcome.params.Set("event_digests", pad::JsonValue(shape.event_digests));
  outcome.params.Set("days", pad::JsonValue(9));
  return outcome;
}

}  // namespace perfbench
