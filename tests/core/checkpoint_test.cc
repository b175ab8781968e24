// Unit and property tests for the checkpoint journal: field-exact round
// trips, the config fingerprint's sensitivity, and the corruption contract —
// a journal truncated or bit-flipped anywhere never aborts, never resurrects
// a damaged record, and always yields the longest valid prefix.
#include "src/core/checkpoint.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/sweep.h"

namespace pad {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t ReadU32At(const std::string& bytes, size_t pos) {
  return ByteReader(std::string_view(bytes).substr(pos, 4)).GetU32();
}

// Frame start offsets: frames[0] is the header record, frames[k >= 1] market
// record k - 1; a final entry marks end of file.
std::vector<size_t> FrameBoundaries(const std::string& bytes) {
  std::vector<size_t> frames;
  size_t pos = 8;
  while (pos + 8 <= bytes.size()) {
    frames.push_back(pos);
    pos += 8 + ReadU32At(bytes, pos);
  }
  frames.push_back(bytes.size());
  return frames;
}

CheckpointHeader TestHeader(int num_markets) {
  CheckpointHeader header;
  header.config_fingerprint = 0x1122334455667788ull;
  header.population_seed = 42;
  header.total_users = 30;
  header.num_markets = num_markets;
  header.run_baseline = true;
  header.event_digests = true;
  return header;
}

// A record with every field distinct and salt-dependent, digests consistent
// with the metrics (the reader drops records whose digests mismatch).
MarketRecord TestRecord(int market) {
  MarketRecord record;
  record.market = market;
  const double salt = 1.0 + market;
  record.sessions = 100 + market;
  record.generate_seconds = 0.25 * salt;
  record.simulate_seconds = 1.75 * salt;
  record.event_digest = 0x9999000000000000ull + static_cast<uint64_t>(market);

  for (size_t c = 0; c < record.pad.energy.radio.by_category.size(); ++c) {
    record.pad.energy.radio.by_category[c] = {0.5 * salt + c, 0.25 * salt, 1000.0 * salt,
                                              7 + market + static_cast<int64_t>(c)};
  }
  record.pad.energy.radio.promo_time_s = 3.5 * salt;
  record.pad.energy.radio.active_time_s = 11.0 * salt;
  record.pad.energy.radio.tail_time_s = 17.0 * salt;
  record.pad.energy.local_j = 23.0 * salt;
  record.pad.ledger = {10 + market, 9 + market, 1, 2, 11 + market, 31.5 * salt, 0.5 * salt};
  record.pad.service = {40 + market, 30, 5, 5, 3};
  record.pad.scored_days = 14.0;
  for (int b = 0; b < kCalibrationBuckets; ++b) {
    record.pad.calibration[static_cast<size_t>(b)] = {20 + b, 15 + b, 0.05 * (b + market)};
  }
  record.pad.impressions_dispatched = 200 + market;
  record.pad.impressions_sold = 150 + market;
  record.pad.faults = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10 + market};

  record.baseline.energy = record.pad.energy;
  record.baseline.energy.local_j = 29.0 * salt;
  record.baseline.ledger = record.pad.ledger;
  record.baseline.ledger.billed_revenue = 37.25 * salt;
  record.baseline.service = {40 + market, 0, 40 + market, 0, 0};
  record.baseline.scored_days = 14.0;

  record.pad_digest = MetricsDigest(record.pad);
  record.baseline_digest = MetricsDigest(record.baseline);
  return record;
}

// A record in which every field holds a different value, so a writer that
// swapped any two fields would change the bytes. Filled field by field, not
// through ForEachField: a fill in the field list's own order would follow a
// reordered list and hide the reordering from the byte pin.
MarketRecord DistinctRecord() {
  int64_t next = 1;
  const auto count = [&next] { return next++; };
  const auto real = [&next] { return 0.25 + static_cast<double>(next++); };
  const auto fill = [&](EnergyBreakdown& energy, LedgerTotals& ledger, ServiceStats& service,
                        double& scored_days) {
    for (CategoryEnergy& category : energy.radio.by_category) {
      category = {real(), real(), real(), count()};
    }
    energy.radio.promo_time_s = real();
    energy.radio.active_time_s = real();
    energy.radio.tail_time_s = real();
    energy.local_j = real();
    ledger = {count(), count(), count(), count(), count(), real(), real()};
    service = {count(), count(), count(), count(), count()};
    scored_days = real();
  };
  MarketRecord record;
  record.market = 0;
  record.sessions = count();
  record.event_digest = 0x0123456789abcdefull;
  record.generate_seconds = real();
  record.simulate_seconds = real();
  fill(record.baseline.energy, record.baseline.ledger, record.baseline.service,
       record.baseline.scored_days);
  fill(record.pad.energy, record.pad.ledger, record.pad.service, record.pad.scored_days);
  for (CalibrationBucket& bucket : record.pad.calibration) {
    bucket = {count(), count(), real()};
  }
  record.pad.impressions_dispatched = count();
  record.pad.impressions_sold = count();
  record.pad.faults = {count(), count(), count(), count(), count(),
                       count(), count(), count(), count(), count()};
  record.pad_digest = MetricsDigest(record.pad);
  record.baseline_digest = MetricsDigest(record.baseline);
  return record;
}

// Writes a journal holding the header and `record`; returns its bytes.
std::string WriteOneRecordJournal(const std::string& path, const MarketRecord& record) {
  auto writer = CheckpointWriter::Create(path, TestHeader(1));
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_TRUE((*writer)->Append(record).ok());
  return ReadFileBytes(path);
}

// Writes a journal with `num_markets` records and returns its bytes.
std::string WriteTestJournal(const std::string& path, int num_markets) {
  auto writer = CheckpointWriter::Create(path, TestHeader(num_markets));
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (int m = 0; m < num_markets; ++m) {
    const Status status = (*writer)->Append(TestRecord(m));
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  return ReadFileBytes(path);
}

TEST(ConfigFingerprintTest, EqualConfigsAgreeAndSemanticKnobsDiffer) {
  const PadConfig base = QuickConfig();
  EXPECT_EQ(ConfigFingerprint(base), ConfigFingerprint(QuickConfig()));

  std::vector<PadConfig> variants(8, base);
  variants[0].seed += 1;
  variants[1].population.seed += 1;
  variants[2].deadline_s *= 2.0;
  variants[3].faults.report_drop_rate = 0.01;
  variants[4].market_users = 50;
  variants[5].campaigns.arrivals_per_day += 1.0;
  variants[6].population.archetypes[0].name += "x";
  variants[7].wifi.enabled = !variants[7].wifi.enabled;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(ConfigFingerprint(base), ConfigFingerprint(variants[i])) << "variant " << i;
  }
}

TEST(ConfigFingerprintTest, SkewKnobsAreSemanticOnlyWhenEnabled) {
  // Enabled skew is semantic: fraction and multiplier each change traces, so
  // each must change the fingerprint (and so invalidate old journals).
  const PadConfig base = QuickConfig();
  PadConfig skewed = base;
  skewed.population.skew_heavy_fraction = 0.1;
  skewed.population.skew_rate_multiplier = 10.0;
  EXPECT_NE(ConfigFingerprint(base), ConfigFingerprint(skewed));
  PadConfig wider = skewed;
  wider.population.skew_heavy_fraction = 0.2;
  EXPECT_NE(ConfigFingerprint(skewed), ConfigFingerprint(wider));
  PadConfig heavier = skewed;
  heavier.population.skew_rate_multiplier = 20.0;
  EXPECT_NE(ConfigFingerprint(skewed), ConfigFingerprint(heavier));

  // Disabled skew (fraction == 0) changes no trace regardless of the
  // multiplier, and pre-skew journals must stay resumable: the fingerprint
  // only mixes the knobs when the skew is live.
  PadConfig disabled = base;
  disabled.population.skew_rate_multiplier = 10.0;  // Inert: fraction is 0.
  EXPECT_EQ(ConfigFingerprint(base), ConfigFingerprint(disabled));
}

// Sets the `target`-th entry of ForEachKnob's list to a value it did not
// hold and returns the entry's name.
std::string NudgeKnob(PadConfig& config, size_t target) {
  size_t index = 0;
  std::string nudged;
  ForEachKnob(config, [&](std::string_view name, auto& field, const KnobRange&) {
    if (index++ != target) {
      return;
    }
    nudged = name;
    using Field = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_same_v<Field, bool>) {
      field = !field;
    } else if constexpr (std::is_arithmetic_v<Field>) {
      field += 1;
    } else if constexpr (std::is_same_v<Field, PredictorKind>) {
      field = field == PredictorKind::kMarkov ? PredictorKind::kEwma : PredictorKind::kMarkov;
    } else if constexpr (std::is_same_v<Field, RadioProfile>) {
      field.rtt_s += 1.0;
    } else {
      static_assert(std::is_same_v<Field, std::vector<UserArchetype>>);
      field.back().session_duration_sigma += 1.0;
    }
  });
  return nudged;
}

// Every knob on the list is semantic: changing any one moves the
// fingerprint, except the skew multiplier while the skew is off.
TEST(ConfigFingerprintTest, EveryKnobMovesTheFingerprint) {
  PadConfig skewed = QuickConfig();
  skewed.population.skew_heavy_fraction = 0.1;
  for (const PadConfig& base : {QuickConfig(), skewed}) {
    size_t knobs = 0;
    ForEachKnob(base, [&knobs](auto&&...) { ++knobs; });
    const bool skew_on = base.population.skew_heavy_fraction > 0.0;
    for (size_t k = 0; k < knobs; ++k) {
      PadConfig nudged = base;
      const std::string name = NudgeKnob(nudged, k);
      if (!skew_on && name == "population.skew_rate_multiplier") {
        EXPECT_EQ(ConfigFingerprint(base), ConfigFingerprint(nudged)) << name;
      } else {
        EXPECT_NE(ConfigFingerprint(base), ConfigFingerprint(nudged)) << name;
      }
    }
  }
}

// A config, written out field by field, in which every scalar knob holds a
// value no other knob holds (the bools alternate in mixing order). The
// default configs share 0.0 among many knobs (every fault rate, cpm_mu, ...),
// so a pin of them alone would not notice two of those knobs trading places.
PadConfig DistinctKnobConfig() {
  PadConfig config;
  PopulationConfig& pop = config.population;
  pop.num_users = 11;
  pop.horizon_s = 1.5;
  pop.num_apps = 12;
  pop.app_zipf_exponent = 2.5;
  pop.num_segments = 13;
  pop.rate_spread_sigma = 3.5;
  pop.phase_jitter_h = 4.5;
  pop.day_noise_sigma = 5.5;
  pop.weekend_rate_multiplier = 6.5;
  pop.weekend_phase_shift_h = 7.5;
  pop.flat_diurnal = true;
  pop.min_session_s = 8.5;
  pop.max_session_s = 9.5;
  pop.seed = 14;
  pop.skew_heavy_fraction = 0.125;
  pop.skew_rate_multiplier = 10.5;

  CampaignStreamConfig& camp = config.campaigns;
  camp.horizon_s = 11.5;
  camp.arrivals_per_day = 12.5;
  camp.cpm_mu = 13.5;
  camp.cpm_sigma = 14.5;
  camp.target_mu = 15.5;
  camp.target_sigma = 16.5;
  camp.display_deadline_s = 17.5;
  camp.num_segments = 15;
  camp.targeted_fraction = 18.5;
  camp.segment_selectivity = 19.5;
  camp.capped_fraction = 20.5;
  camp.frequency_cap_per_day = 16;
  camp.budgeted_fraction = 21.5;
  camp.budget_value_multiple = 22.5;
  camp.seed = 17;

  config.exchange.reserve_price = 23.5;
  config.exchange.num_segments = 18;
  config.planner.sla_target = 24.5;
  config.planner.max_replicas = 19;
  config.planner.exact_tail = false;
  config.planner.confidence_discount = 25.5;
  config.wifi.enabled = true;
  config.wifi.home_start_h = 26.5;
  config.wifi.home_end_h = 27.5;
  config.wifi.jitter_h = 28.5;

  config.prediction_window_s = 29.5;
  config.deadline_s = 30.5;
  config.predictor = PredictorKind::kMarkov;
  config.oracle_noise_sigma = 31.5;
  config.use_noisy_oracle = false;
  config.overbooking_factor = 32.5;
  config.candidate_pool = 20;
  config.random_candidates = 21;
  config.inventory_control = true;
  config.capacity_confidence = 33.5;
  config.invalidation_sync = false;
  config.invalidation_bytes = 34.5;
  config.rescue_enabled = true;
  config.rescue_horizon_s = 35.5;
  config.rescue_threshold = 36.5;
  config.max_slot_rate_per_s = 37.5;
  config.ad_bytes = 38.5;
  config.slot_report_bytes = 39.5;

  FaultConfig& faults = config.faults;
  faults.report_drop_rate = 40.5;
  faults.report_delay_rate = 41.5;
  faults.fetch_failure_rate = 42.5;
  faults.fetch_max_retries = 22;
  faults.sync_miss_rate = 43.5;
  faults.offline_rate = 44.5;
  faults.offline_window_s = 45.5;
  faults.stale_decay = 46.5;

  config.warmup_days = 23;
  config.market_users = 24;
  config.seed = 25;
  return config;
}

// Exact fingerprints of three fixed configs. The tests above only compare
// fingerprints with each other, so a reordered Mix would pass them while
// every journal already on disk stopped resuming (exit 3).
TEST(ConfigFingerprintTest, ValuesArePinned) {
  EXPECT_EQ(ConfigFingerprint(QuickConfig()), 0x495b6f3f2b4576b5ull);
  PadConfig skewed = QuickConfig();
  skewed.population.skew_heavy_fraction = 0.1;
  skewed.population.skew_rate_multiplier = 10.0;
  EXPECT_EQ(ConfigFingerprint(skewed), 0xaeb389640b113e30ull);
  EXPECT_EQ(ConfigFingerprint(DistinctKnobConfig()), 0xd99ccf8b1403d236ull);
}

TEST(CheckpointTest, JournalBytesArePinned) {
  const std::string path = TempPath("ckpt_pinned.ckpt");
  const MarketRecord record = DistinctRecord();
  EXPECT_EQ(record.pad_digest, 0xce1c08846ee32a05ull);
  EXPECT_EQ(record.baseline_digest, 0xe6cafc80405ed2b5ull);
  const std::string bytes = WriteOneRecordJournal(path, record);
  EXPECT_EQ(bytes.size(), 1040u);
  EXPECT_EQ(FnvFoldBytes(kFnvOffset, bytes), 0x6bfd6c6525461ae0ull);

  const StatusOr<CheckpointContents> read = ReadCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->markets.size(), 1u);
  EXPECT_EQ(MetricsDigest(read->markets[0].pad), record.pad_digest);
  EXPECT_EQ(MetricsDigest(read->markets[0].baseline), record.baseline_digest);
}

// One field list (ForEachField, metrics.h) yields both formats: FNV-1a over
// a journal's encoded result blocks equals each result's MetricsDigest.
TEST(CheckpointTest, EncodedResultBlocksHashToMetricsDigests) {
  const MarketRecord record = DistinctRecord();
  const std::string bytes = WriteOneRecordJournal(TempPath("ckpt_blocks.ckpt"), record);
  const auto block_bytes = [](const auto& result) {
    size_t fields = 0;
    ForEachField(result, [&fields](auto) { ++fields; });
    return 8 * fields;
  };
  // The market record ends with the baseline block, then the PAD block.
  const std::string_view file(bytes);
  const size_t pad_bytes = block_bytes(record.pad);
  const size_t baseline_bytes = block_bytes(record.baseline);
  ASSERT_GT(file.size(), pad_bytes + baseline_bytes);
  const std::string_view pad_block = file.substr(file.size() - pad_bytes);
  const std::string_view baseline_block =
      file.substr(file.size() - pad_bytes - baseline_bytes, baseline_bytes);
  EXPECT_EQ(FnvFoldBytes(kFnvOffset, pad_block), MetricsDigest(record.pad));
  EXPECT_EQ(FnvFoldBytes(kFnvOffset, baseline_block), MetricsDigest(record.baseline));
}

TEST(CheckpointTest, RoundTripIsFieldExact) {
  const std::string path = TempPath("ckpt_roundtrip.ckpt");
  WriteTestJournal(path, 3);

  const StatusOr<CheckpointContents> read = ReadCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->has_header);
  EXPECT_FALSE(read->truncated());
  const CheckpointHeader expected_header = TestHeader(3);
  EXPECT_EQ(expected_header.config_fingerprint, read->header.config_fingerprint);
  EXPECT_EQ(expected_header.population_seed, read->header.population_seed);
  EXPECT_EQ(expected_header.total_users, read->header.total_users);
  EXPECT_EQ(expected_header.num_markets, read->header.num_markets);
  EXPECT_EQ(expected_header.run_baseline, read->header.run_baseline);
  EXPECT_EQ(expected_header.event_digests, read->header.event_digests);

  ASSERT_EQ(3u, read->markets.size());
  for (int m = 0; m < 3; ++m) {
    const MarketRecord expected = TestRecord(m);
    const MarketRecord& actual = read->markets[static_cast<size_t>(m)];
    EXPECT_EQ(expected.market, actual.market);
    EXPECT_EQ(expected.sessions, actual.sessions);
    EXPECT_EQ(expected.event_digest, actual.event_digest);
    // Digest equality is field-by-field bit equality over every metric.
    EXPECT_EQ(expected.pad_digest, actual.pad_digest);
    EXPECT_EQ(MetricsDigest(expected.pad), MetricsDigest(actual.pad));
    EXPECT_EQ(MetricsDigest(expected.baseline), MetricsDigest(actual.baseline));
    // Spot-check IEEE exactness of doubles after the round trip.
    EXPECT_EQ(expected.pad.ledger.billed_revenue, actual.pad.ledger.billed_revenue);
    EXPECT_EQ(expected.generate_seconds, actual.generate_seconds);
    EXPECT_EQ(expected.simulate_seconds, actual.simulate_seconds);
  }
}

TEST(CheckpointTest, MissingAndForeignFiles) {
  const StatusOr<CheckpointContents> missing = ReadCheckpoint(TempPath("ckpt_missing.ckpt"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(StatusCode::kNotFound, missing.status().code());

  const std::string foreign = TempPath("ckpt_foreign.txt");
  WriteFileBytes(foreign, "users,days\n100,21\n");
  const StatusOr<CheckpointContents> not_journal = ReadCheckpoint(foreign);
  ASSERT_FALSE(not_journal.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, not_journal.status().code());
}

TEST(CheckpointTest, EveryTruncationPointYieldsTheValidPrefix) {
  const std::string path = TempPath("ckpt_trunc.ckpt");
  const std::string bytes = WriteTestJournal(path, 3);
  const std::vector<size_t> frames = FrameBoundaries(bytes);
  ASSERT_EQ(5u, frames.size());  // header + 3 markets + EOF sentinel.

  const std::string truncated_path = TempPath("ckpt_trunc_cut.ckpt");
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteFileBytes(truncated_path, bytes.substr(0, cut));
    const StatusOr<CheckpointContents> read = ReadCheckpoint(truncated_path);
    ASSERT_TRUE(read.ok()) << "cut at " << cut << ": " << read.status().ToString();
    // Complete frames strictly below the cut survive; nothing else does.
    size_t complete_frames = 0;
    while (complete_frames + 1 < frames.size() && frames[complete_frames + 1] <= cut) {
      ++complete_frames;
    }
    EXPECT_EQ(complete_frames >= 1, read->has_header) << "cut at " << cut;
    const size_t expected_markets = complete_frames > 0 ? complete_frames - 1 : 0;
    ASSERT_EQ(expected_markets, read->markets.size()) << "cut at " << cut;
    for (size_t m = 0; m < expected_markets; ++m) {
      EXPECT_EQ(static_cast<int32_t>(m), read->markets[m].market);
    }
    // A mid-frame cut is reported; a cut exactly at a frame boundary (or at
    // the bare magic) is a clean end of journal.
    const bool at_boundary =
        cut == 8 || (complete_frames >= 1 && frames[complete_frames] == cut);
    EXPECT_EQ(!at_boundary, read->truncated()) << "cut at " << cut;
    EXPECT_LE(read->valid_bytes, static_cast<int64_t>(cut));
  }
}

TEST(CheckpointTest, BitFlipsNeverAbortAndNeverResurrectDamagedRecords) {
  const std::string path = TempPath("ckpt_flip.ckpt");
  const std::string bytes = WriteTestJournal(path, 3);
  const std::vector<size_t> frames = FrameBoundaries(bytes);

  // Every frame's length, CRC, and first payload byte, plus seeded random
  // offsets across the whole file.
  std::vector<size_t> offsets = {0, 3, 7};
  for (size_t f = 0; f + 1 < frames.size(); ++f) {
    offsets.push_back(frames[f]);      // Length field.
    offsets.push_back(frames[f] + 4);  // CRC field.
    offsets.push_back(frames[f] + 8);  // Payload type byte.
  }
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<size_t> pick(0, bytes.size() - 1);
  for (int i = 0; i < 64; ++i) {
    offsets.push_back(pick(rng));
  }

  const std::string flipped_path = TempPath("ckpt_flip_cut.ckpt");
  for (const size_t offset : offsets) {
    std::string flipped = bytes;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0xff);
    WriteFileBytes(flipped_path, flipped);
    const StatusOr<CheckpointContents> read = ReadCheckpoint(flipped_path);
    if (offset < 8) {
      // Magic damage: the file is no longer recognizably ours; refusing to
      // resume (rather than recreating) protects foreign files.
      ASSERT_FALSE(read.ok()) << "offset " << offset;
      EXPECT_EQ(StatusCode::kInvalidArgument, read.status().code()) << "offset " << offset;
      continue;
    }
    ASSERT_TRUE(read.ok()) << "offset " << offset << ": " << read.status().ToString();
    // The frame containing the flip — and everything after it — must be gone;
    // frames before it must survive intact.
    size_t damaged_frame = 0;
    while (damaged_frame + 1 < frames.size() && frames[damaged_frame + 1] <= offset) {
      ++damaged_frame;
    }
    EXPECT_EQ(damaged_frame >= 1, read->has_header) << "offset " << offset;
    const size_t expected_markets = damaged_frame > 0 ? damaged_frame - 1 : 0;
    ASSERT_EQ(expected_markets, read->markets.size()) << "offset " << offset;
    for (size_t m = 0; m < expected_markets; ++m) {
      const MarketRecord expected = TestRecord(static_cast<int>(m));
      EXPECT_EQ(expected.market, read->markets[m].market);
      EXPECT_EQ(expected.pad_digest, read->markets[m].pad_digest);
      EXPECT_EQ(expected.pad_digest, MetricsDigest(read->markets[m].pad));
    }
    EXPECT_TRUE(read->truncated()) << "offset " << offset;
    EXPECT_LE(read->valid_bytes, static_cast<int64_t>(frames[damaged_frame]));
  }
}

TEST(CheckpointTest, ResumeTruncatesTheTornTailAndAppends) {
  const std::string path = TempPath("ckpt_resume.ckpt");
  {
    // A 3-market run of which only 2 markets landed before the crash.
    auto writer = CheckpointWriter::Create(path, TestHeader(3));
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append(TestRecord(0)).ok());
    ASSERT_TRUE((*writer)->Append(TestRecord(1)).ok());
  }
  // Crash mid-append: garbage past the last fsync'd record.
  std::string bytes = ReadFileBytes(path);
  const size_t intact_size = bytes.size();
  bytes += std::string("\x13\x37garbage-torn-tail", 19);
  WriteFileBytes(path, bytes);

  const StatusOr<CheckpointContents> before = ReadCheckpoint(path);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->truncated());
  EXPECT_EQ(static_cast<int64_t>(intact_size), before->valid_bytes);
  ASSERT_EQ(2u, before->markets.size());

  auto writer = CheckpointWriter::Resume(path, before->valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(TestRecord(2)).ok());

  const StatusOr<CheckpointContents> after = ReadCheckpoint(path);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->truncated());
  ASSERT_EQ(3u, after->markets.size());
  EXPECT_EQ(2, after->markets[2].market);
  EXPECT_EQ(TestRecord(2).pad_digest, after->markets[2].pad_digest);
}

TEST(CheckpointTest, DuplicateOrOutOfRangeMarketsAreCutNotMerged) {
  const std::string path = TempPath("ckpt_dup.ckpt");
  {
    auto writer = CheckpointWriter::Create(path, TestHeader(2));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(TestRecord(0)).ok());
    ASSERT_TRUE((*writer)->Append(TestRecord(0)).ok());  // Duplicate index.
  }
  const StatusOr<CheckpointContents> dup = ReadCheckpoint(path);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(1u, dup->markets.size());
  EXPECT_TRUE(dup->truncated());

  {
    auto writer = CheckpointWriter::Create(path, TestHeader(2));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(TestRecord(5)).ok());  // Out of range.
  }
  const StatusOr<CheckpointContents> range = ReadCheckpoint(path);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(0u, range->markets.size());
  EXPECT_TRUE(range->truncated());
}

TEST(OpenOrResumeJournalTest, FreshResumeAndRefusalPaths) {
  const std::string path = TempPath("ckpt_open_resume.ckpt");
  std::remove(path.c_str());
  const CheckpointHeader header = TestHeader(3);

  // Fresh: no file yet — a writer with an empty record set, file created.
  {
    StatusOr<ResumedJournal> fresh = OpenOrResumeJournal(path, header, /*fsync_each=*/true);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_TRUE(fresh->records.empty());
    ASSERT_NE(nullptr, fresh->writer);
    ASSERT_TRUE(fresh->writer->Append(TestRecord(0)).ok());
  }

  // Resume: the surviving record comes back and appends continue after it.
  {
    StatusOr<ResumedJournal> resumed = OpenOrResumeJournal(path, header, true);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ASSERT_EQ(1u, resumed->records.size());
    EXPECT_EQ(0, resumed->records[0].market);
    EXPECT_EQ(TestRecord(0).pad_digest, resumed->records[0].pad_digest);
    ASSERT_TRUE(resumed->writer->Append(TestRecord(1)).ok());
  }
  const StatusOr<CheckpointContents> contents = ReadCheckpoint(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(2u, contents->markets.size());

  // Resume with a torn tail: the tail is dropped, intact records survive.
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes + "torn");
  {
    StatusOr<ResumedJournal> healed = OpenOrResumeJournal(path, header, true);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(2u, healed->records.size());
  }

  // A different experiment's header: refused, file untouched.
  CheckpointHeader other = header;
  other.config_fingerprint ^= 1;
  StatusOr<ResumedJournal> stale = OpenOrResumeJournal(path, other, true);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, stale.status().code());

  // Mismatched engine result flags are a distinct refusal.
  CheckpointHeader flags = header;
  flags.event_digests = !flags.event_digests;
  StatusOr<ResumedJournal> flag_mismatch = OpenOrResumeJournal(path, flags, true);
  ASSERT_FALSE(flag_mismatch.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, flag_mismatch.status().code());

  // A foreign file at the path: the non-NotFound read error propagates; the
  // file is never clobbered by a "fresh" create.
  const std::string foreign = TempPath("ckpt_open_foreign.csv");
  WriteFileBytes(foreign, "label,users\nrun,100\n");
  StatusOr<ResumedJournal> refused = OpenOrResumeJournal(foreign, header, true);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, refused.status().code());
  EXPECT_EQ("label,users\nrun,100\n", ReadFileBytes(foreign));
}

TEST(FsyncParentDirTest, SyncsRealDirsAndReportsMissingOnes) {
  EXPECT_TRUE(FsyncParentDir(TempPath("any_name.ckpt")).ok());
  EXPECT_TRUE(FsyncParentDir("bare_filename_no_slash").ok());  // "." parent.
  const Status missing = FsyncParentDir("/nonexistent_dir_xyz/file.ckpt");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(StatusCode::kUnavailable, missing.code());
}

TEST(CheckpointTest, UnsupportedSchemaVersionIsARefusalNotACrash) {
  const std::string path = TempPath("ckpt_schema.ckpt");
  WriteTestJournal(path, 1);
  std::string bytes = ReadFileBytes(path);

  // Patch the header's schema_version (payload offset 1, little-endian u32)
  // and recompute the frame CRC so the record still validates.
  const size_t frame = 8;
  const uint32_t payload_len = ReadU32At(bytes, frame);
  bytes[frame + 8 + 1] = 99;
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
    table[i] = crc;
  }
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < payload_len; ++i) {
    crc = (crc >> 8) ^
          table[(crc ^ static_cast<unsigned char>(bytes[frame + 8 + i])) & 0xffu];
  }
  crc ^= 0xffffffffu;
  for (int byte = 0; byte < 4; ++byte) {
    bytes[frame + 4 + static_cast<size_t>(byte)] =
        static_cast<char>((crc >> (8 * byte)) & 0xffu);
  }
  WriteFileBytes(path, bytes);

  const StatusOr<CheckpointContents> read = ReadCheckpoint(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(StatusCode::kFailedPrecondition, read.status().code());
}

}  // namespace
}  // namespace pad
