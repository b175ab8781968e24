#include "src/serve/session_adapter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/apps/app_profile.h"
#include "src/auction/auction.h"
#include "src/common/task_scheduler.h"
#include "src/core/pad_simulation.h"
#include "src/overbook/display_model.h"
#include "src/prediction/slot_series.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

// Clients per snapshot-build task. A fixed size, not a knob: the snapshot
// is the same at any chunking. 128 clients are milliseconds of trace
// generation, so scheduling is noise, and a few thousand clients still make
// enough tasks to spread over every core and to even out heavy clients by
// stealing.
constexpr int64_t kClientsPerTask = 128;

}  // namespace

ServeConfig DefaultServeConfig(int num_users) {
  ServeConfig config;
  config.pad = QuickConfig();
  config.pad.population.num_users = num_users;
  // Demand scales with supply, as in bench_util's StandardConfig, so the
  // snapshot book never starves the decisions.
  config.pad.campaigns.arrivals_per_day =
      std::max(50.0, 1.5 * static_cast<double>(num_users));
  return config;
}

StatusOr<std::unique_ptr<DecisionEngine>> DecisionEngine::Create(const ServeConfig& config) {
  const std::string problem = ValidateConfig(config.pad);
  if (!problem.empty()) {
    return Status::InvalidArgument("invalid config: " + problem);
  }
  if (config.max_bundle_ads == 0) {
    return Status::InvalidArgument("invalid config: max_bundle_ads must be positive");
  }
  if (config.snapshot_time_s > config.pad.population.horizon_s) {
    return Status::InvalidArgument("invalid config: snapshot_time_s past the trace horizon");
  }

  const PadConfig cfg = AlignInputsConfig(config.pad);
  auto engine = std::unique_ptr<DecisionEngine>(new DecisionEngine(config));

  // The snapshot is built as independent tasks on the one executor: task 0
  // builds the campaign book, task t >= 1 the clients of chunk t - 1. Each
  // part of the snapshot is a pure function of the config, written by the
  // one task that computes it, so the result is bit-identical at any worker
  // count and under any steal pattern (DESIGN.md §13). Worker 0 starts with
  // the book while the other workers take client chunks.
  const int64_t num_clients = cfg.population.num_users;
  const int64_t client_tasks = (num_clients + kClientsPerTask - 1) / kClientsPerTask;
  const int workers = ResolveWorkers(0, client_tasks + 1);
  const AppCatalog catalog = AppCatalog::TopFifteen();
  std::vector<PopulationStream> streams(static_cast<size_t>(workers),
                                        PopulationStream(cfg.population));
  engine->clients_.resize(static_cast<size_t>(num_clients));
  RunTaskQueues(PartitionTasks(client_tasks + 1, workers), [&](int worker, int64_t task) {
    if (task == 0) {
      engine->BuildBook(cfg.campaigns, config.EffectiveSnapshotTime());
      return;
    }
    const int64_t lo = (task - 1) * kClientsPerTask;
    engine->BuildClients(cfg, catalog, streams[static_cast<size_t>(worker)], lo,
                         std::min(num_clients, lo + kClientsPerTask));
  });
  return engine;
}

void DecisionEngine::BuildClients(const PadConfig& cfg, const AppCatalog& catalog,
                                  PopulationStream& stream, int64_t lo, int64_t hi) {
  // Per-client slot-rate estimates from the same trace the batch engine
  // would simulate: generate each PopulationStream client once and count its
  // slots per prediction window straight from its sessions. The window
  // statistics feed the display model exactly as a client's slot report
  // would (mean -> rate; empirical variance, floored at Poisson, -> var).
  // The stream lands on `lo` bit-identically whatever it generated before.
  const double window_s = cfg.prediction_window_s;
  stream.SeekUsers(lo);
  for (int64_t u = lo; u < hi; ++u) {
    const Population block = stream.NextBlock(1);
    const UserTrace& user = block.users[0];
    const SlotSeries series = CountSlots(catalog, user, cfg.population.horizon_s, window_s);
    double mean = 0.0;
    for (const int count : series.counts) {
      mean += static_cast<double>(count);
    }
    const double windows = std::max<size_t>(series.counts.size(), 1);
    mean /= windows;
    double variance = 0.0;
    for (const int count : series.counts) {
      const double d = static_cast<double>(count) - mean;
      variance += d * d;
    }
    variance /= windows;
    ClientState& state = clients_[static_cast<size_t>(u)];
    state.slots_per_s = static_cast<float>(
        std::min(mean / window_s, cfg.max_slot_rate_per_s));
    state.var_per_s = static_cast<float>(
        std::max(variance / window_s, static_cast<double>(state.slots_per_s)));
    state.segment = user.segment;
  }
}

void DecisionEngine::BuildBook(const CampaignStreamConfig& campaigns, double snapshot) {
  // Campaign book snapshot: everything that has arrived by the snapshot
  // time, laddered per segment in the exchange's bid order (bid desc, id
  // asc). The ladder is immutable; sessions consume demand from their own
  // lazily-materialized per-campaign counters. The stream is a sequential
  // arrival process, so one cut at the snapshot yields exactly the full
  // stream's campaigns up to it. It keeps arrivals strictly before its
  // horizon, so the cut sits one ulp past the snapshot: a campaign arriving
  // exactly at the snapshot is live.
  CampaignStreamConfig book = campaigns;
  book.horizon_s = std::min(
      book.horizon_s, std::nextafter(snapshot, std::numeric_limits<double>::infinity()));
  const size_t num_segments = static_cast<size_t>(std::max(1, campaigns.num_segments));
  // Two passes over the stream, which is cheap to redraw: the first sizes
  // each ladder, the second fills it. The build holds no campaign records
  // and no ladder outgrows its final size.
  std::vector<size_t> sizes(num_segments, 0);
  active_campaigns_ = 0;
  for (CampaignStream stream(book); const std::optional<Campaign> campaign = stream.Next();) {
    ++active_campaigns_;
    for (size_t s = 0; s < num_segments; ++s) {
      sizes[s] += campaign->Targets(static_cast<int>(s)) ? 1 : 0;
    }
  }
  ladders_.assign(num_segments, {});
  for (size_t s = 0; s < num_segments; ++s) {
    ladders_[s].reserve(sizes[s]);
  }
  for (CampaignStream stream(book); const std::optional<Campaign> campaign = stream.Next();) {
    for (size_t s = 0; s < num_segments; ++s) {
      if (campaign->Targets(static_cast<int>(s))) {
        ladders_[s].push_back(LadderEntry{campaign->bid_per_impression, campaign->campaign_id,
                                          campaign->target_impressions,
                                          campaign->frequency_cap_per_day});
      }
    }
  }
  for (std::vector<LadderEntry>& ladder : ladders_) {
    std::sort(ladder.begin(), ladder.end(), [](const LadderEntry& a, const LadderEntry& b) {
      if (a.bid != b.bid) {
        return a.bid > b.bid;
      }
      return a.campaign_id < b.campaign_id;
    });
  }
}

int64_t DecisionEngine::active_campaigns() const { return active_campaigns_; }

double DecisionEngine::client_slots_per_s(int64_t client) const {
  return static_cast<double>(clients_[static_cast<size_t>(client)].slots_per_s);
}

double DecisionEngine::client_var_per_s(int64_t client) const {
  return static_cast<double>(clients_[static_cast<size_t>(client)].var_per_s);
}

int DecisionEngine::client_segment(int64_t client) const {
  return clients_[static_cast<size_t>(client)].segment;
}

void DecisionEngine::Sell(Session& session, int segment, int64_t count,
                          std::vector<WireAd>* ads) const {
  const std::vector<LadderEntry>& ladder = ladders_[static_cast<size_t>(segment)];
  const double reserve = config_.pad.exchange.reserve_price;
  for (int64_t sold = 0; sold < count; ++sold) {
    // Top two live campaigns in ladder order decide winner and price — the
    // same sealed-bid second-price primitive the exchange runs per slot.
    const LadderEntry* top[2] = {nullptr, nullptr};
    for (const LadderEntry& entry : ladder) {
      const auto demand_it =
          session.demand_remaining.try_emplace(entry.campaign_id, entry.target_impressions)
              .first;
      if (demand_it->second <= 0) {
        continue;
      }
      if (entry.frequency_cap > 0) {
        const auto freq_it = session.frequency.find(entry.campaign_id);
        if (freq_it != session.frequency.end() && freq_it->second >= entry.frequency_cap) {
          continue;
        }
      }
      if (top[0] == nullptr) {
        top[0] = &entry;
      } else {
        top[1] = &entry;
        break;
      }
    }
    if (top[0] == nullptr) {
      return;  // Demand exhausted for this session.
    }
    Bid bids[2];
    int num_bids = 0;
    for (const LadderEntry* entry : top) {
      if (entry != nullptr) {
        bids[num_bids++] = Bid{entry->campaign_id, entry->bid};
      }
    }
    const AuctionOutcome outcome =
        RunSecondPriceAuction(std::span<const Bid>(bids, static_cast<size_t>(num_bids)), reserve);
    if (!outcome.sold) {
      return;  // Best remaining bid is at or below the reserve; so is the rest.
    }
    session.demand_remaining[outcome.winner_id] -= 1;
    session.frequency[outcome.winner_id] += 1;
    ads->push_back(WireAd{outcome.winner_id, outcome.clearing_price});
  }
}

WireResponse DecisionEngine::Decide(Session& session, const WireRequest& request) const {
  ++session.requests;
  WireResponse response;
  if (request.client_id >= static_cast<uint64_t>(clients_.size())) {
    response.status = ResponseStatus::kUnknownClient;
    return response;
  }
  if (request.slot_count == 0 || request.slot_count > config_.max_bundle_ads ||
      !std::isfinite(request.deadline_s) || request.deadline_s <= 0.0 ||
      request.deadline_s > kMaxRequestDeadlineS) {
    response.status = ResponseStatus::kBadRequest;
    return response;
  }

  const ClientState& client = clients_[static_cast<size_t>(request.client_id)];
  const ClientSlotEstimate estimate{
      .client_id = static_cast<int>(request.client_id),
      .slots_per_s = static_cast<double>(client.slots_per_s),
      .var_per_s = static_cast<double>(client.var_per_s),
      .queue_ahead = 0};
  // The sale budget the batch server would compute for this client and
  // horizon, minus the claims this session already committed (inventory
  // control: queued ads are promises against the same future slots).
  const int capacity =
      ConfidentCapacity(estimate, request.deadline_s, config_.pad.capacity_confidence);
  const int64_t spare = static_cast<int64_t>(capacity) - session.queued;

  if (spare > 0) {
    const int64_t bundle = std::min<int64_t>(request.slot_count, spare);
    Sell(session, client.segment, bundle, &response.ads);
    if (!response.ads.empty()) {
      response.decision = DecisionKind::kBundle;
      session.queued += static_cast<int64_t>(response.ads.size());
      return response;
    }
    // No paying demand for a confident client: fall through to the
    // real-time path, which will find the same empty book and answer kNone.
  }
  // No confident capacity (or no prefetchable demand): sell exactly one
  // impression at display time, the baseline's path.
  Sell(session, client.segment, 1, &response.ads);
  response.decision = response.ads.empty() ? DecisionKind::kNone : DecisionKind::kRealtime;
  return response;
}

std::vector<WireResponse> DecisionEngine::DecideBatch(
    const std::vector<WireRequest>& requests) const {
  Session session = NewSession();
  std::vector<WireResponse> responses;
  responses.reserve(requests.size());
  for (const WireRequest& request : requests) {
    responses.push_back(Decide(session, request));
  }
  return responses;
}

}  // namespace pad
