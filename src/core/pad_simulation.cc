#include "src/core/pad_simulation.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>

#include "src/apps/workload.h"
#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/core/pad_client.h"
#include "src/core/pad_server.h"
#include "src/prediction/slot_series.h"

namespace pad {

Population FilterPopulation(const Population& population, double t0) {
  Population filtered;
  filtered.horizon_s = population.horizon_s;
  filtered.users.reserve(population.users.size());
  for (const UserTrace& user : population.users) {
    UserTrace kept;
    kept.user_id = user.user_id;
    kept.segment = user.segment;
    for (const Session& session : user.sessions) {
      if (session.start_time >= t0) {
        kept.sessions.push_back(session);
      }
    }
    filtered.users.push_back(std::move(kept));
  }
  return filtered;
}

PadConfig AlignInputsConfig(const PadConfig& config) {
  PadConfig cfg = config;
  cfg.population.num_apps = AppCatalog::TopFifteen().size();
  cfg.campaigns.horizon_s = cfg.population.horizon_s;
  cfg.campaigns.display_deadline_s = cfg.deadline_s;
  cfg.campaigns.num_segments = cfg.population.num_segments;
  return cfg;
}

SimContext MakeSimContext(const PadConfig& config) {
  const std::string error = ValidateConfig(config);
  PAD_CHECK_MSG(error.empty(), error.c_str());
  SimContext context;
  context.config = config;
  context.t0 = config.WarmupS();
  context.window_s = config.prediction_window_s;
  context.epoch_s = config.EpochS();
  context.warmup_windows = static_cast<int>(std::lround(context.t0 / context.window_s));
  context.epochs_per_window =
      static_cast<int>(std::lround(context.window_s / context.epoch_s));
  return context;
}

SimInputs GenerateInputs(const SimContext& context) {
  const PadConfig cfg = AlignInputsConfig(context.config);
  SimInputs inputs{GeneratePopulation(cfg.population), AppCatalog::TopFifteen(),
                   GenerateCampaignStream(cfg.campaigns)};
  return inputs;
}

SimInputs GenerateInputs(const PadConfig& config) {
  return GenerateInputs(MakeSimContext(config));
}

BaselineResult RunBaseline(const SimContext& context, const SimInputs& inputs) {
  const PadConfig& config = context.config;
  const double t0 = context.t0;
  const double horizon = inputs.population.horizon_s;
  PAD_CHECK_MSG(horizon > t0, "horizon must extend past the warmup");

  // Expanding with min_session_start == t0 is equivalent to expanding a
  // FilterPopulation copy, without materializing the copy; one scratch
  // workload and one radio machine per interface are reused across users so
  // steady state allocates nothing per user.
  WorkloadOptions options;
  options.on_demand_ads = true;
  options.app_content = true;
  options.min_session_start = t0;

  BaselineResult result;
  result.scored_days = (horizon - t0) / kDay;

  // Energy: each device's transfer schedule through its own radio.
  struct SegmentedSlot {
    double time;
    int segment;
  };
  // Reserved at its exact size, the kept sessions' slot count, so it holds no
  // spare capacity and never copies itself while it fills.
  size_t kept_slots = 0;
  for (const UserTrace& user : inputs.population.users) {
    for (const Session& session : user.sessions) {
      if (session.start_time >= t0) {
        ForEachSlotTime(inputs.catalog.Get(session.app_id), session,
                        [&kept_slots](double) { ++kept_slots; });
      }
    }
  }
  std::vector<SegmentedSlot> all_slots;
  all_slots.reserve(kept_slots);
  RadioMachine cell(config.radio);
  std::optional<RadioMachine> wifi;
  if (config.wifi.enabled) {
    wifi.emplace(config.wifi_radio);
  }
  UserWorkload scratch;
  std::vector<Transfer> on_cell;
  std::vector<Transfer> on_wifi;
  for (size_t u = 0; u < inputs.population.users.size(); ++u) {
    const UserTrace& user = inputs.population.users[u];
    ExpandUserInto(inputs.catalog, user, options, scratch);
    if (config.wifi.enabled) {
      // Route each transfer by availability at request time, mirroring what
      // the PAD client does, so WiFi helps both systems equally.
      on_cell.clear();
      on_wifi.clear();
      for (const Transfer& transfer : scratch.transfers) {
        (WifiAvailableAt(config.wifi, user.user_id, transfer.request_time) ? on_wifi : on_cell)
            .push_back(transfer);
      }
      cell.Reset();
      cell.SubmitAll(on_cell);
      cell.Finalize(std::max(horizon, cell.busy_until()));
      result.energy.radio.Merge(cell.report());
      wifi->Reset();
      wifi->SubmitAll(on_wifi);
      wifi->Finalize(std::max(horizon, wifi->busy_until()));
      result.energy.radio.Merge(wifi->report());
    } else {
      cell.Reset();
      cell.SubmitAll(scratch.transfers);
      cell.Finalize(std::max(horizon, cell.busy_until()));
      result.energy.radio.Merge(cell.report());
    }
    result.energy.local_j += scratch.local_energy_j;
    for (const SlotEvent& slot : scratch.slots) {
      all_slots.push_back(SegmentedSlot{slot.time, user.segment});
    }
  }

  // Market: real-time auction per slot, display at sale time.
  std::sort(all_slots.begin(), all_slots.end(),
            [](const SegmentedSlot& a, const SegmentedSlot& b) { return a.time < b.time; });
  ExchangeConfig exchange_config = config.exchange;
  exchange_config.num_segments = config.population.num_segments;
  Exchange exchange(exchange_config, inputs.campaigns);
  for (const SegmentedSlot& slot : all_slots) {
    ++result.service.slots;
    if (!exchange.SellAndDisplaySlot(slot.time, slot.segment)) {
      ++result.service.unfilled;
      continue;
    }
    ++result.service.fallback_fetches;  // Every baseline display is an on-demand fetch.
  }
  exchange.ledger().ExpireDeadlines(horizon + config.deadline_s);
  result.ledger = exchange.ledger().totals();
  return result;
}

BaselineResult RunBaseline(const PadConfig& config, const SimInputs& inputs) {
  return RunBaseline(MakeSimContext(config), inputs);
}

namespace {

// One client's chronologically merged input events for the scored phase.
// A 2000-user market holds about 856 k of them at once, so an event keeps
// only its time and a kind: kind 0 is an ad slot, and any other kind names
// a shape in the run's TransferShapes table, from which the transfer is
// rebuilt with request_time = time when the event runs.
struct FeedEvent {
  double time = 0.0;
  uint32_t kind = 0;
};
static_assert(sizeof(FeedEvent) == 16);

// Transfer kinds come from TransferShapes, which starts them at 1.
constexpr uint32_t kSlotKind = 0;

// A client's arena-backed feed: sorted events plus a replay cursor.
struct ClientFeed {
  const FeedEvent* events = nullptr;
  uint32_t count = 0;
  uint32_t next = 0;
};

// One pending client event in the run queue. Events run in (time, seq)
// order, and seq breaks time ties by scheduling order: epoch boundaries own
// seqs [0, num_epochs), so an epoch runs before any client event at the same
// instant; each client's first event takes the next seqs in client order;
// and each executed feed event gives its successor the next global seq. That
// order is part of every digest.
struct PendingEvent {
  double time = 0.0;
  uint64_t seq = 0;
  uint32_t client = 0;
};

bool Earlier(const PendingEvent& a, const PendingEvent& b) {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.seq < b.seq;
}

// Binary min-heap of pending client events on (time, seq). Nearly every pop
// is followed by a push of the same client's next event, so ReplaceTop does
// both in one sift-down instead of a pop's sift-down plus a push's sift-up.
// Every seq is unique, so (time, seq) is a strict total order and the pop
// order is the one any correct priority queue yields.
class RunQueue {
 public:
  explicit RunQueue(size_t capacity) { heap_.reserve(capacity); }

  bool empty() const { return heap_.empty(); }
  const PendingEvent& top() const { return heap_.front(); }

  void Push(const PendingEvent& event) {
    size_t hole = heap_.size();
    heap_.push_back(event);
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!Earlier(event, heap_[parent])) {
        break;
      }
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  void Pop() {
    const PendingEvent last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDownFromTop(last);
    }
  }

  // Pop() followed by Push(event).
  void ReplaceTop(const PendingEvent& event) { SiftDownFromTop(event); }

 private:
  // Fills the top slot with `event`, moving earlier children up.
  void SiftDownFromTop(const PendingEvent& event) {
    const size_t n = heap_.size();
    size_t hole = 0;
    for (size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && Earlier(heap_[child + 1], heap_[child])) {
        ++child;
      }
      if (!Earlier(heap_[child], event)) {
        break;
      }
      heap_[hole] = heap_[child];
      hole = child;
    }
    heap_[hole] = event;
  }

  std::vector<PendingEvent> heap_;
};

// Once PAD has read a user's sessions (its warm-up counts and its feed's
// expansion), a user the caller handed over gives them back, buffer and all
// (clear() would keep the buffer); a shared, read-only user is left as is.
void ReleaseSessions(UserTrace& user) { std::vector<Session>().swap(user.sessions); }
void ReleaseSessions(const UserTrace&) {}

// The one body of both RunPad entry points: a build step, one user at a
// time, then the run. `inputs` is either read only (const SimInputs&) or
// handed over (SimInputs&&); then each user's sessions are freed as soon as
// the user is built, and the campaign stream moves into the exchange instead
// of being copied. What users share during the build advances in user order:
// the transfer-shape table, the local-energy sum and the run queue's seqs,
// whose first client seq follows the epoch seqs fixed before any user. So
// the order in which one user's client and feed are built changes no bit.
template <typename Inputs>
PadRunResult BuildAndRunPad(const SimContext& context, Inputs&& inputs, EventLog* event_log) {
  const PadConfig& config = context.config;
  const double t0 = context.t0;
  const double horizon = inputs.population.horizon_s;
  const double window_s = context.window_s;
  const double epoch_s = context.epoch_s;
  PAD_CHECK_MSG(horizon > t0, "horizon must extend past the warmup");
  PAD_CHECK(window_s > 0.0 && epoch_s > 0.0);

  // The epoch must tile the prediction window so every window boundary is an
  // epoch boundary.
  const int epochs_per_window = context.epochs_per_window;
  PAD_CHECK_MSG(std::fabs(window_s / epoch_s - epochs_per_window) < 1e-9 &&
                    epochs_per_window >= 1,
                "prediction window must be a multiple of the sale epoch");
  const int warmup_windows = context.warmup_windows;
  PAD_CHECK_MSG(std::fabs(t0 / window_s - warmup_windows) < 1e-9,
                "warmup must be a whole number of prediction windows");

  PadRunResult result;
  result.scored_days = (horizon - t0) / kDay;

  // Epoch (and window-rollover) boundaries. Accumulated with repeated
  // addition, exactly like the legacy scheduling loop, so the boundary
  // times are bit-identical.
  std::vector<double> epoch_times;
  for (double t = t0; t + config.deadline_s <= horizon + 1e-9; t += epoch_s) {
    epoch_times.push_back(t);
  }
  PAD_CHECK_MSG(!epoch_times.empty(), "no epochs fit between warmup and horizon");

  // --- Build each user's warm client and arena feed ---------------------
  WorkloadOptions options;
  options.on_demand_ads = false;
  options.app_content = true;
  options.min_session_start = t0;

  const size_t num_users = inputs.population.users.size();
  std::vector<std::unique_ptr<PadClient>> clients;
  clients.reserve(num_users);
  Arena arena;
  TransferShapes shapes;
  std::vector<ClientFeed> feeds(num_users);
  uint64_t next_seq = epoch_times.size();
  RunQueue queue(num_users);
  {
    UserWorkload scratch;
    for (auto& user : inputs.population.users) {
      // Warm-up needs per-window counts only (the noisy oracle takes the
      // whole horizon's), so they come straight from the sessions.
      const SlotSeries series = CountSlots(inputs.catalog, user, horizon, window_s);
      std::unique_ptr<SlotPredictor> predictor;
      if (config.use_noisy_oracle) {
        predictor = std::make_unique<NoisyOraclePredictor>(
            series.counts, config.oracle_noise_sigma,
            config.seed ^ (0x5eedull + static_cast<uint64_t>(user.user_id)));
      } else {
        predictor = MakePredictor(config.predictor, series.WindowsPerDay());
        for (int w = 0; w < warmup_windows && w < series.num_windows(); ++w) {
          predictor->Observe(w, series.counts[static_cast<size_t>(w)]);
        }
      }
      const auto c = static_cast<uint32_t>(clients.size());
      clients.push_back(std::make_unique<PadClient>(user.user_id, user.segment, config,
                                                    std::move(predictor)));
      clients.back()->set_event_log(event_log);

      ExpandUserInto(inputs.catalog, user, options, scratch);
      ReleaseSessions(user);
      result.energy.local_j += scratch.local_energy_j;

      ClientFeed& feed = feeds[c];
      feed.count = static_cast<uint32_t>(scratch.slots.size() + scratch.transfers.size());
      FeedEvent* events = arena.NewArray<FeedEvent>(feed.count);
      feed.events = events;
      size_t n = 0;
      for (const SlotEvent& slot : scratch.slots) {
        events[n++] = FeedEvent{slot.time, kSlotKind};
      }
      for (const Transfer& transfer : scratch.transfers) {
        events[n++] = FeedEvent{transfer.request_time, shapes.KindOf(transfer)};
      }
      // Not stable, so the digests pin how ties land: std::sort's moves
      // depend only on comparison outcomes, here only on the times, so the
      // events' size and payload never change the permutation.
      std::sort(events, events + feed.count,
                [](const FeedEvent& a, const FeedEvent& b) { return a.time < b.time; });
      if (feed.count > 0) {
        queue.Push(PendingEvent{events[0].time, next_seq++, c});
      }
    }
  }

  ExchangeConfig exchange_config = config.exchange;
  exchange_config.num_segments = config.population.num_segments;
  Exchange exchange(exchange_config, std::forward<Inputs>(inputs).campaigns);
  if (event_log != nullptr) {
    exchange.ledger().set_observer(event_log);
  }
  PadServer server(config, clients, exchange, config.seed ^ 0xad5e17ull, event_log);

  // --- Run --------------------------------------------------------------
  // Two sources feed the merged event order: epoch boundaries (time-sorted,
  // all seqs below every client seq, so an epoch wins any time tie) walk a
  // cursor, and client events pop from the queue.
  size_t epoch_cursor = 0;
  for (;;) {
    const bool have_epoch = epoch_cursor < epoch_times.size();
    const bool have_client = !queue.empty();
    if (have_epoch &&
        (!have_client || epoch_times[epoch_cursor] <= queue.top().time)) {
      const double t = epoch_times[epoch_cursor];
      const int k = static_cast<int>(epoch_cursor);
      ++epoch_cursor;
      if (k % epochs_per_window == 0) {
        const int abs_window = warmup_windows + k / epochs_per_window;
        for (auto& client : clients) {
          client->StartWindow(t, abs_window);
        }
      }
      server.RunEpoch(t);
      continue;
    }
    if (!have_client || queue.top().time > horizon) {
      break;
    }
    const PendingEvent pending = queue.top();
    ClientFeed& feed = feeds[pending.client];
    const FeedEvent& event = feed.events[feed.next++];
    if (event.kind == kSlotKind) {
      clients[pending.client]->OnSlot(pending.time, exchange, result.service);
    } else {
      clients[pending.client]->OnContentTransfer(shapes.At(event.kind, event.time));
    }
    // The client's next event takes its place; the handlers above never
    // touch the queue.
    if (feed.next < feed.count) {
      queue.ReplaceTop(PendingEvent{feed.events[feed.next].time, next_seq++, pending.client});
    } else {
      queue.Pop();
    }
  }

  // --- Close out ----------------------------------------------------------
  exchange.ledger().ExpireDeadlines(horizon + config.deadline_s);
  server.FinalizeCalibration();
  for (auto& client : clients) {
    client->FinishRadio(horizon);
    result.energy.radio.Merge(client->radio_report());
    result.service.expired_cache_drops += client->cache().expired_drops();
    result.faults.Merge(client->fault_stats());
  }
  result.faults.Merge(server.fault_stats());
  result.ledger = exchange.ledger().totals();
  result.impressions_sold = server.impressions_sold();
  result.impressions_dispatched = server.impressions_dispatched();
  result.calibration = server.calibration();
  return result;
}

}  // namespace

PadRunResult RunPad(const SimContext& context, const SimInputs& inputs, EventLog* event_log) {
  return BuildAndRunPad(context, inputs, event_log);
}

PadRunResult RunPad(const SimContext& context, SimInputs&& inputs, EventLog* event_log) {
  return BuildAndRunPad(context, std::move(inputs), event_log);
}

PadRunResult RunPad(const PadConfig& config, const SimInputs& inputs, EventLog* event_log) {
  return RunPad(MakeSimContext(config), inputs, event_log);
}

PadConfig QuickConfig() {
  PadConfig config;
  config.population.num_users = 40;
  config.population.horizon_s = 10.0 * kDay;
  config.warmup_days = 7;
  config.prediction_window_s = 1.0 * kHour;
  config.campaigns.arrivals_per_day = 50.0;
  return config;
}

}  // namespace pad
