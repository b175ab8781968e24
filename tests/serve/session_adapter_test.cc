// DecisionEngine contract: request validation maps to wire statuses, bundle
// sizes respect the confident-capacity budget, and sessions are independent —
// interleaving requests across sessions can never change any answer.
#include "src/serve/session_adapter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/apps/app_profile.h"
#include "src/apps/workload.h"
#include "src/auction/campaign.h"
#include "src/common/bytes.h"
#include "src/common/units.h"
#include "src/core/pad_simulation.h"
#include "src/prediction/slot_series.h"
#include "src/trace/generator.h"

namespace pad {
namespace {

class SessionAdapterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ServeConfig config = DefaultServeConfig(24);
    StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = engine->release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static WireRequest Valid(uint64_t client, uint32_t slots = 2) {
    return WireRequest{client, slots, 3.0 * 3600.0};
  }

  static DecisionEngine* engine_;
};

DecisionEngine* SessionAdapterTest::engine_ = nullptr;

TEST_F(SessionAdapterTest, SnapshotCoversThePopulation) {
  EXPECT_EQ(engine_->num_clients(), 24);
  // QuickConfig demand (>= 50 arrivals/day over a 7-day warmup) guarantees a
  // non-empty book at the snapshot.
  EXPECT_GT(engine_->active_campaigns(), 0);
  for (int64_t c = 0; c < engine_->num_clients(); ++c) {
    EXPECT_GE(engine_->client_slots_per_s(c), 0.0);
    EXPECT_GE(engine_->client_segment(c), 0);
  }
}

TEST_F(SessionAdapterTest, UnknownClientIsRejected) {
  DecisionEngine::Session session = engine_->NewSession();
  for (uint64_t client : {static_cast<uint64_t>(engine_->num_clients()),
                          static_cast<uint64_t>(engine_->num_clients()) + 100,
                          std::numeric_limits<uint64_t>::max()}) {
    const WireResponse response = engine_->Decide(session, Valid(client));
    EXPECT_EQ(response.status, ResponseStatus::kUnknownClient);
    EXPECT_TRUE(response.ads.empty());
  }
}

TEST_F(SessionAdapterTest, MalformedRequestFieldsAreBadRequests) {
  DecisionEngine::Session session = engine_->NewSession();
  std::vector<WireRequest> bad = {
      {0, 0, 3600.0},                                      // Zero slots.
      {0, engine_->config().max_bundle_ads + 1, 3600.0},   // Bundle too large.
      {0, 2, 0.0},                                         // No time to display.
      {0, 2, -5.0},                                        // Negative deadline.
      {0, 2, std::numeric_limits<double>::quiet_NaN()},    // NaN deadline.
      {0, 2, std::numeric_limits<double>::infinity()},     // Infinite deadline.
      {0, 2, 2.0 * kWeek},                                 // Beyond the sale horizon.
  };
  for (const WireRequest& request : bad) {
    const WireResponse response = engine_->Decide(session, request);
    EXPECT_EQ(response.status, ResponseStatus::kBadRequest)
        << "slots=" << request.slot_count << " deadline=" << request.deadline_s;
    EXPECT_TRUE(response.ads.empty());
  }
  // Rejections never consume session budget: a valid decision afterwards is
  // identical to one on a fresh session.
  const WireResponse after = engine_->Decide(session, Valid(0));
  DecisionEngine::Session fresh = engine_->NewSession();
  EXPECT_EQ(after, engine_->Decide(fresh, Valid(0)));
}

TEST_F(SessionAdapterTest, ResponseShapeMatchesDecision) {
  for (int64_t client = 0; client < engine_->num_clients(); ++client) {
    DecisionEngine::Session session = engine_->NewSession();
    for (int r = 0; r < 50; ++r) {
      const WireRequest request = Valid(static_cast<uint64_t>(client), 3);
      const WireResponse response = engine_->Decide(session, request);
      ASSERT_EQ(response.status, ResponseStatus::kOk);
      switch (response.decision) {
        case DecisionKind::kBundle:
          ASSERT_GE(response.ads.size(), 1u);
          ASSERT_LE(response.ads.size(), request.slot_count);
          break;
        case DecisionKind::kRealtime:
          ASSERT_EQ(response.ads.size(), 1u);
          break;
        case DecisionKind::kNone:
          ASSERT_TRUE(response.ads.empty());
          break;
      }
      for (const WireAd& ad : response.ads) {
        // Every sold impression clears at or above the exchange reserve.
        ASSERT_GE(ad.price_usd, engine_->config().pad.exchange.reserve_price);
      }
    }
  }
}

TEST_F(SessionAdapterTest, BundlingStopsOnceCapacityIsCommitted) {
  // With a fixed deadline, the confident capacity is fixed, so committed
  // bundle ads only grow: once a request is not answered with a bundle, no
  // later identical request may be (spare <= 0 or demand gone, both sticky).
  for (int64_t client = 0; client < engine_->num_clients(); ++client) {
    DecisionEngine::Session session = engine_->NewSession();
    bool bundling_over = false;
    int64_t bundled = 0;
    for (int r = 0; r < 200; ++r) {
      const WireResponse response =
          engine_->Decide(session, Valid(static_cast<uint64_t>(client), 4));
      if (response.decision == DecisionKind::kBundle) {
        ASSERT_FALSE(bundling_over) << "client " << client << " resumed bundling at " << r;
        bundled += static_cast<int64_t>(response.ads.size());
      } else {
        bundling_over = true;
      }
    }
    EXPECT_EQ(session.queued, bundled);
  }
}

TEST_F(SessionAdapterTest, TinyDeadlineNeverBundles) {
  // One second of confident slot production at max_slot_rate_per_s (1/15 s)
  // is zero for every client, so the bundle path cannot open.
  DecisionEngine::Session session = engine_->NewSession();
  for (int64_t client = 0; client < engine_->num_clients(); ++client) {
    const WireResponse response =
        engine_->Decide(session, WireRequest{static_cast<uint64_t>(client), 4, 1.0});
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_NE(response.decision, DecisionKind::kBundle);
  }
}

TEST_F(SessionAdapterTest, DecideBatchIsReproducible) {
  std::vector<WireRequest> requests;
  for (int r = 0; r < 64; ++r) {
    requests.push_back(Valid(static_cast<uint64_t>(r % engine_->num_clients()),
                             1 + static_cast<uint32_t>(r % 4)));
  }
  const std::vector<WireResponse> first = engine_->DecideBatch(requests);
  const std::vector<WireResponse> second = engine_->DecideBatch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "request " << i;
    EXPECT_EQ(EncodeResponsePayload(first[i]), EncodeResponsePayload(second[i]));
  }
}

TEST_F(SessionAdapterTest, TwoEnginesFromOneConfigAgree) {
  ServeConfig config = DefaultServeConfig(16);
  StatusOr<std::unique_ptr<DecisionEngine>> a = DecisionEngine::Create(config);
  StatusOr<std::unique_ptr<DecisionEngine>> b = DecisionEngine::Create(config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<WireRequest> requests;
  for (int r = 0; r < 48; ++r) {
    requests.push_back(Valid(static_cast<uint64_t>(r % 16), 1 + static_cast<uint32_t>(r % 3)));
  }
  EXPECT_EQ((*a)->DecideBatch(requests), (*b)->DecideBatch(requests));
}

TEST_F(SessionAdapterTest, SessionsAreIndependentUnderInterleaving) {
  // Two sessions with distinct request streams, decided in three different
  // interleavings, must each reproduce their dedicated batch replay exactly.
  std::vector<WireRequest> stream_a, stream_b;
  for (int r = 0; r < 40; ++r) {
    stream_a.push_back(Valid(static_cast<uint64_t>(r % 5), 1 + static_cast<uint32_t>(r % 4)));
    stream_b.push_back(Valid(static_cast<uint64_t>(5 + (r % 7)), 1 + static_cast<uint32_t>(r % 3)));
  }
  const std::vector<WireResponse> expect_a = engine_->DecideBatch(stream_a);
  const std::vector<WireResponse> expect_b = engine_->DecideBatch(stream_b);

  const auto run_interleaved = [&](int pattern) {
    DecisionEngine::Session session_a = engine_->NewSession();
    DecisionEngine::Session session_b = engine_->NewSession();
    std::vector<WireResponse> got_a, got_b;
    size_t ia = 0, ib = 0;
    int step = 0;
    while (ia < stream_a.size() || ib < stream_b.size()) {
      bool pick_a;
      switch (pattern) {
        case 0:  pick_a = (step % 2 == 0); break;          // Strict alternation.
        case 1:  pick_a = (step % 5 < 4); break;           // Bursty A.
        default: pick_a = (step * 7 % 13 < 6); break;      // Irregular.
      }
      if (pick_a && ia >= stream_a.size()) {
        pick_a = false;
      }
      if (!pick_a && ib >= stream_b.size()) {
        pick_a = true;
      }
      if (pick_a) {
        got_a.push_back(engine_->Decide(session_a, stream_a[ia++]));
      } else {
        got_b.push_back(engine_->Decide(session_b, stream_b[ib++]));
      }
      ++step;
    }
    EXPECT_EQ(got_a, expect_a) << "pattern " << pattern;
    EXPECT_EQ(got_b, expect_b) << "pattern " << pattern;
  };
  for (int pattern = 0; pattern < 3; ++pattern) {
    run_interleaved(pattern);
  }
}

// The display model's first term for a client at a deadline, as the model
// computes it: e^-m when the variance does not exceed the mean m, else p^r.
double FirstTerm(const DecisionEngine& engine, int64_t client, double deadline_s) {
  const double mean = engine.client_slots_per_s(client) * deadline_s;
  const double variance = engine.client_var_per_s(client) * deadline_s;
  if (variance <= mean) {
    return std::exp(-mean);
  }
  return std::pow(mean / variance, mean * mean / (variance - mean));
}

// At the longest deadline a request may carry, a busy, bursty client's
// first term underflows to 0. The capacity search once read a tail of 1 at
// every count there and never returned, wedging the server thread for every
// connection. Every client must be answered at that deadline, and each
// underflowing client at deadlines that step its first term down through
// the subnormal range (the log of the first term is linear in the deadline).
TEST_F(SessionAdapterTest, LongestDeadlineIsAnsweredWhereTheModelUnderflows) {
  StatusOr<std::unique_ptr<DecisionEngine>> built =
      DecisionEngine::Create(DefaultServeConfig(8192));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const DecisionEngine& engine = **built;
  std::vector<int64_t> underflowing;
  for (int64_t c = 0; c < engine.num_clients(); ++c) {
    if (FirstTerm(engine, c, kMaxRequestDeadlineS) == 0.0) {
      underflowing.push_back(c);
    }
  }
  ASSERT_FALSE(underflowing.empty());
  for (int64_t c = 0; c < engine.num_clients(); ++c) {
    DecisionEngine::Session session = engine.NewSession();
    const WireResponse response =
        engine.Decide(session, WireRequest{static_cast<uint64_t>(c), 4, kMaxRequestDeadlineS});
    ASSERT_EQ(response.status, ResponseStatus::kOk) << "client " << c;
  }
  for (const int64_t c : underflowing) {
    const double log_first_per_s = std::log(FirstTerm(engine, c, 1.0));
    for (double log_first = -700.0; log_first >= -760.0; log_first -= 0.25) {
      const double deadline_s = std::min(log_first / log_first_per_s, kMaxRequestDeadlineS);
      DecisionEngine::Session session = engine.NewSession();
      const WireResponse response =
          engine.Decide(session, WireRequest{static_cast<uint64_t>(c), 4, deadline_s});
      ASSERT_EQ(response.status, ResponseStatus::kOk)
          << "client " << c << " deadline " << deadline_s;
      EXPECT_EQ(response.decision, DecisionKind::kBundle)
          << "client " << c << " deadline " << deadline_s;
    }
  }
}

// A market big enough for the snapshot build to span many client chunks,
// with three segments and uneven chunks: the first tenth of the clients
// generate 20x the sessions of the rest.
ServeConfig SkewedSnapshotConfig() {
  ServeConfig config = DefaultServeConfig(1500);
  config.pad.population.num_segments = 3;
  config.pad.population.skew_heavy_fraction = 0.1;
  config.pad.population.skew_rate_multiplier = 20.0;
  return config;
}

// FNV-1a over every client's state, the size of the book, and the encoded
// answers to a fixed plan that asks every client for bundles at deadlines
// from a minute to a day (one fresh session per client).
uint64_t SnapshotDigest(const DecisionEngine& engine) {
  uint64_t hash = FnvFoldU64(kFnvOffset, static_cast<uint64_t>(engine.num_clients()));
  for (int64_t c = 0; c < engine.num_clients(); ++c) {
    hash = FnvFoldU64(hash, std::bit_cast<uint64_t>(engine.client_slots_per_s(c)));
    hash = FnvFoldU64(hash, std::bit_cast<uint64_t>(engine.client_var_per_s(c)));
    hash = FnvFoldU64(hash, static_cast<uint64_t>(engine.client_segment(c)));
  }
  hash = FnvFoldU64(hash, static_cast<uint64_t>(engine.active_campaigns()));
  for (int64_t c = 0; c < engine.num_clients(); ++c) {
    std::vector<WireRequest> plan;
    for (const double deadline_s : {kMinute, 10.0 * kMinute, kHour, 4.0 * kHour, kDay}) {
      plan.push_back(WireRequest{static_cast<uint64_t>(c),
                                 1 + static_cast<uint32_t>((c + plan.size()) % 4), deadline_s});
    }
    for (const WireResponse& response : engine.DecideBatch(plan)) {
      hash = FnvFoldBytes(hash, EncodeResponsePayload(response));
    }
  }
  return hash;
}

// Pins the snapshot a skewed three-segment market builds, and everything it
// serves from it: the build may change how it runs, never what it yields.
TEST_F(SessionAdapterTest, SnapshotIsPinned) {
  StatusOr<std::unique_ptr<DecisionEngine>> engine =
      DecisionEngine::Create(SkewedSnapshotConfig());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->num_clients(), 1500);
  EXPECT_EQ((*engine)->active_campaigns(), 15805);
  EXPECT_EQ(SnapshotDigest(**engine), 0x490a2d39841fa6f6ull);
}

// The build's result recomputed one client at a time, the way the snapshot
// was first built: expand every slot of the client's trace into a sorted
// vector and bin it, then keep the full campaign stream's arrivals up to
// the snapshot. The chunked, parallel build must match it exactly.
TEST_F(SessionAdapterTest, SnapshotMatchesSerialReference) {
  const ServeConfig config = SkewedSnapshotConfig();
  StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const PadConfig cfg = AlignInputsConfig(config.pad);
  const double window_s = cfg.prediction_window_s;
  const AppCatalog catalog = AppCatalog::TopFifteen();
  PopulationStream stream(cfg.population);
  ASSERT_EQ((*engine)->num_clients(), cfg.population.num_users);
  for (int64_t c = 0; c < cfg.population.num_users; ++c) {
    const Population block = stream.NextBlock(1);
    const UserTrace& user = block.users[0];
    const SlotSeries series =
        BinSlots(SlotsForUser(catalog, user), cfg.population.horizon_s, window_s);
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
    const float slots_per_s =
        static_cast<float>(std::min(mean / window_s, cfg.max_slot_rate_per_s));
    const float var_per_s = static_cast<float>(
        std::max(variance / window_s, static_cast<double>(slots_per_s)));
    ASSERT_EQ((*engine)->client_slots_per_s(c), static_cast<double>(slots_per_s)) << "client " << c;
    ASSERT_EQ((*engine)->client_var_per_s(c), static_cast<double>(var_per_s)) << "client " << c;
    ASSERT_EQ((*engine)->client_segment(c), user.segment) << "client " << c;
  }
  int64_t live = 0;
  for (const Campaign& campaign : GenerateCampaignStream(cfg.campaigns)) {
    live += campaign.arrival_time <= config.EffectiveSnapshotTime() ? 1 : 0;
  }
  EXPECT_EQ((*engine)->active_campaigns(), live);
}

// A campaign arriving exactly at the snapshot time is live, and the next
// one is not: the book keeps arrival_time <= snapshot_time_s.
TEST(ServeConfigTest, SnapshotAtAnArrivalKeepsThatCampaign) {
  ServeConfig config = DefaultServeConfig(8);
  const std::vector<Campaign> stream =
      GenerateCampaignStream(AlignInputsConfig(config.pad).campaigns);
  ASSERT_GT(stream.size(), 10u);
  for (const size_t index : {size_t{0}, size_t{9}}) {
    config.snapshot_time_s = stream[index].arrival_time;
    StatusOr<std::unique_ptr<DecisionEngine>> engine = DecisionEngine::Create(config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ((*engine)->active_campaigns(), static_cast<int64_t>(index) + 1);
  }
}

TEST(ServeConfigTest, CreateRejectsBadConfigs) {
  ServeConfig negative_users = DefaultServeConfig(-3);
  EXPECT_FALSE(DecisionEngine::Create(negative_users).ok());

  ServeConfig no_bundles = DefaultServeConfig(8);
  no_bundles.max_bundle_ads = 0;
  EXPECT_FALSE(DecisionEngine::Create(no_bundles).ok());

  ServeConfig late_snapshot = DefaultServeConfig(8);
  late_snapshot.snapshot_time_s = late_snapshot.pad.population.horizon_s + 1.0;
  EXPECT_FALSE(DecisionEngine::Create(late_snapshot).ok());
}

TEST(ServeConfigTest, SnapshotTimeDefaultsToWarmup) {
  ServeConfig config = DefaultServeConfig(8);
  EXPECT_DOUBLE_EQ(config.EffectiveSnapshotTime(), config.pad.WarmupS());
  config.snapshot_time_s = 123.0;
  EXPECT_DOUBLE_EQ(config.EffectiveSnapshotTime(), 123.0);
}

}  // namespace
}  // namespace pad
