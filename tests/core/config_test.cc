#include "src/core/config.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pad {
namespace {

PadConfig WithTimes(double window_h, double deadline_h) {
  PadConfig config;
  config.prediction_window_s = window_h * kHour;
  config.deadline_s = deadline_h * kHour;
  return config;
}

TEST(EpochTest, LongDeadlineUsesFullWindow) {
  EXPECT_DOUBLE_EQ(WithTimes(1.0, 3.0).EpochS(), kHour);
  EXPECT_DOUBLE_EQ(WithTimes(1.0, 2.0).EpochS(), kHour);
  EXPECT_DOUBLE_EQ(WithTimes(2.0, 24.0).EpochS(), 2.0 * kHour);
}

TEST(EpochTest, ShortDeadlineGuaranteesTwoSyncsPerDeadline) {
  // E must be <= D/2 and divide T.
  for (double deadline_h : {0.25, 0.5, 0.75, 1.0, 1.5}) {
    const PadConfig config = WithTimes(1.0, deadline_h);
    const double epoch = config.EpochS();
    EXPECT_LE(epoch, config.deadline_s / 2.0 + 1e-9) << "D=" << deadline_h;
    const double ratio = config.prediction_window_s / epoch;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-9) << "E must divide T, D=" << deadline_h;
    EXPECT_GT(epoch, 0.0);
  }
}

TEST(EpochTest, KnownValues) {
  EXPECT_DOUBLE_EQ(WithTimes(1.0, 1.0).EpochS(), 0.5 * kHour);
  EXPECT_DOUBLE_EQ(WithTimes(1.0, 0.5).EpochS(), 0.25 * kHour);
  // D = 45 min -> target 22.5 min -> T/ceil(60/22.5)=60/3 = 20 min.
  EXPECT_DOUBLE_EQ(WithTimes(1.0, 0.75).EpochS(), kHour / 3.0);
  EXPECT_DOUBLE_EQ(WithTimes(2.0, 1.0).EpochS(), 0.5 * kHour);
}

TEST(EpochTest, ExactBoundaryTwoToOne) {
  // D == 2T: target D/2 == T exactly -> full window.
  EXPECT_DOUBLE_EQ(WithTimes(1.5, 3.0).EpochS(), 1.5 * kHour);
}

TEST(ConfigTest, WarmupSeconds) {
  PadConfig config;
  config.warmup_days = 3;
  EXPECT_DOUBLE_EQ(config.WarmupS(), 3.0 * kDay);
}

TEST(ConfigTest, DefaultsAreInternallyConsistent) {
  const PadConfig config;
  EXPECT_GT(config.deadline_s, 0.0);
  EXPECT_GT(config.prediction_window_s, 0.0);
  EXPECT_GT(config.capacity_confidence, 0.0);
  EXPECT_LT(config.capacity_confidence, 1.0);
  EXPECT_GE(config.planner.max_replicas, 1);
  EXPECT_GT(config.ad_bytes, 0.0);
  // The default T divides a day (required by the window machinery).
  const double windows = kDay / config.prediction_window_s;
  EXPECT_NEAR(windows, std::round(windows), 1e-9);
}

// --- ValidateConfig error paths ------------------------------------------
//
// A bad knob must come back as a one-line message naming the knob, not as a
// CHECK failure from deep inside the run (or, worse, a silently wrong run).
// Each case asserts both that validation rejects the config and that the
// message mentions the offending field.

::testing::AssertionResult MessageNames(const std::string& message, const std::string& knob) {
  if (message.empty()) {
    return ::testing::AssertionFailure() << "config was accepted, expected a message naming \""
                                         << knob << "\"";
  }
  if (message.find(knob) == std::string::npos) {
    return ::testing::AssertionFailure()
           << "message \"" << message << "\" does not name \"" << knob << "\"";
  }
  return ::testing::AssertionSuccess();
}

TEST(ValidateConfigTest, DefaultAndQuickStyleConfigsAreValid) {
  EXPECT_EQ(ValidateConfig(PadConfig{}), "");
  PadConfig config;
  config.population.num_users = 40;
  config.warmup_days = 7;
  config.faults = FaultConfig::Uniform(0.2);
  EXPECT_EQ(ValidateConfig(config), "");
}

TEST(ValidateConfigTest, RejectsNonPositivePredictionWindow) {
  PadConfig config;
  config.prediction_window_s = 0.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "prediction_window_s"));
  config.prediction_window_s = -1.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "prediction_window_s"));
}

TEST(ValidateConfigTest, RejectsWindowThatDoesNotDivideADay) {
  PadConfig config;
  config.prediction_window_s = 7.0 * kHour;  // 24/7 is not an integer.
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "divide a day"));
}

TEST(ValidateConfigTest, RejectsNonPositiveDeadline) {
  PadConfig config;
  config.deadline_s = 0.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "deadline_s"));
}

TEST(ValidateConfigTest, RejectsVanishinglySmallDeadline) {
  // A deadline orders of magnitude below the window would push the epoch
  // derivation into degenerate territory; the message must say so rather
  // than letting EpochS() misbehave downstream.
  PadConfig config;
  config.prediction_window_s = kDay;
  config.deadline_s = 1e-3;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "deadline_s"));
}

TEST(ValidateConfigTest, RejectsNegativeWarmup) {
  PadConfig config;
  config.warmup_days = -1;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "warmup_days"));
}

TEST(ValidateConfigTest, RejectsEmptyPopulationAndBadSegments) {
  PadConfig config;
  config.population.num_users = 0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "num_users"));
  config = PadConfig{};
  config.population.num_segments = 0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "num_segments"));
  config.population.num_segments = kMaxSegments + 1;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "num_segments"));
}

TEST(ValidateConfigTest, RejectsOutOfRangeSkewKnobs) {
  PadConfig config;
  config.population.skew_heavy_fraction = -0.1;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "skew_heavy_fraction"));
  config.population.skew_heavy_fraction = 1.5;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "skew_heavy_fraction"));

  config = PadConfig{};
  config.population.skew_rate_multiplier = 0.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "skew_rate_multiplier"));
  config.population.skew_rate_multiplier = -3.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "skew_rate_multiplier"));

  // The boundary settings are all legal: no skew, full skew, damping below 1.
  config = PadConfig{};
  config.population.skew_heavy_fraction = 1.0;
  config.population.skew_rate_multiplier = 0.5;
  EXPECT_EQ(ValidateConfig(config), "");
}

TEST(ValidateConfigTest, RejectsOutOfRangePolicyKnobs) {
  PadConfig config;
  config.capacity_confidence = 1.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "capacity_confidence"));
  config = PadConfig{};
  config.planner.sla_target = 0.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "sla_target"));
  config = PadConfig{};
  config.planner.max_replicas = 0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "max_replicas"));
  config = PadConfig{};
  config.rescue_threshold = 1.5;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "rescue_threshold"));
}

TEST(ValidateConfigTest, RejectsBadPayloadSizes) {
  PadConfig config;
  config.ad_bytes = 0.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "ad_bytes"));
  config = PadConfig{};
  config.slot_report_bytes = -1.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "slot_report_bytes"));
}

TEST(ValidateConfigTest, RejectsNegativeAndOverUnitFaultRates) {
  PadConfig config;
  config.faults.report_drop_rate = -0.1;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "report_drop_rate"));
  config = PadConfig{};
  config.faults.fetch_failure_rate = 1.5;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "fetch_failure_rate"));
  config = PadConfig{};
  config.faults.sync_miss_rate = -1e-6;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "sync_miss_rate"));
  config = PadConfig{};
  config.faults.offline_rate = 2.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "offline_rate"));
}

TEST(ValidateConfigTest, RejectsReportFatesSummingPastOne) {
  PadConfig config;
  config.faults.report_drop_rate = 0.7;
  config.faults.report_delay_rate = 0.7;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "report_drop_rate + "));
  // Exactly one is fine: the bands partition the unit interval.
  config.faults.report_delay_rate = 0.3;
  EXPECT_EQ(ValidateConfig(config), "");
}

TEST(ValidateConfigTest, RejectsBadFaultShapeKnobs) {
  PadConfig config;
  config.faults.fetch_max_retries = -1;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "fetch_max_retries"));
  config = PadConfig{};
  config.faults.offline_rate = 0.1;
  config.faults.offline_window_s = 0.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "offline_window_s"));
  config = PadConfig{};
  config.faults.stale_decay = 1.5;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "stale_decay"));
}

// An arithmetic entry of ForEachKnob's list, by position.
struct ArithmeticKnob {
  size_t index;
  std::string name;
  KnobRange range;
  bool integral;
};

std::vector<ArithmeticKnob> ArithmeticKnobs() {
  std::vector<ArithmeticKnob> knobs;
  size_t index = 0;
  const PadConfig defaults;
  ForEachKnob(defaults, [&](std::string_view name, const auto& field, const KnobRange& range) {
    using Field = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_arithmetic_v<Field> && !std::is_same_v<Field, bool>) {
      knobs.push_back({index, std::string(name), range, std::is_integral_v<Field>});
    }
    ++index;
  });
  return knobs;
}

// The default config with its `index`-th knob set to `value`.
PadConfig DefaultsWith(size_t index, double value) {
  PadConfig config;
  size_t at = 0;
  ForEachKnob(config, [&](std::string_view, auto& field, const KnobRange&) {
    using Field = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_arithmetic_v<Field> && !std::is_same_v<Field, bool>) {
      if (at == index) {
        field = static_cast<Field>(value);
      }
    }
    ++at;
  });
  return config;
}

::testing::AssertionResult RangeMessageNames(const std::string& message, const std::string& knob) {
  if (message.rfind(knob + " must be ", 0) != 0) {
    return ::testing::AssertionFailure()
           << "message \"" << message << "\" does not start with \"" << knob << " must be\"";
  }
  return ::testing::AssertionSuccess();
}

TEST(ValidateConfigTest, RejectsEveryKnobJustOutsideItsRange) {
  const double inf = std::numeric_limits<double>::infinity();
  int bounds = 0;
  for (const ArithmeticKnob& knob : ArithmeticKnobs()) {
    const KnobRange& range = knob.range;
    std::vector<double> outside;
    if (std::isfinite(range.low)) {
      outside.push_back(range.low_open  ? range.low
                        : knob.integral ? range.low - 1.0
                                        : std::nextafter(range.low, -inf));
    }
    if (std::isfinite(range.high)) {
      outside.push_back(range.high_open ? range.high
                        : knob.integral ? range.high + 1.0
                                        : std::nextafter(range.high, inf));
    }
    for (const double value : outside) {
      ++bounds;
      EXPECT_TRUE(RangeMessageNames(ValidateConfig(DefaultsWith(knob.index, value)), knob.name))
          << "value " << value;
    }
  }
  EXPECT_GT(bounds, 0);
}

// The messages built from the ranges keep the hand-written wording.
TEST(ValidateConfigTest, RangeMessagesKeepTheirWording) {
  PadConfig config;
  config.population.num_users = 0;
  EXPECT_EQ(ValidateConfig(config), "population.num_users must be at least 1");
  config = PadConfig{};
  config.deadline_s = -1.0;
  EXPECT_EQ(ValidateConfig(config), "deadline_s must be positive");
  config = PadConfig{};
  config.random_candidates = -1;
  EXPECT_EQ(ValidateConfig(config), "random_candidates must be non-negative");
  config = PadConfig{};
  config.faults.offline_rate = 2.0;
  EXPECT_EQ(ValidateConfig(config), "faults.offline_rate must be in [0, 1]");
  config = PadConfig{};
  config.population.num_segments = kMaxSegments + 1;
  EXPECT_EQ(ValidateConfig(config), "population.num_segments must be in [1, 32]");
  config = PadConfig{};
  config.planner.confidence_discount = 0.0;
  EXPECT_EQ(ValidateConfig(config), "planner.confidence_discount must be in (0, 1]");
}

TEST(ValidateConfigTest, RejectsNonFiniteValuesOfEveryKnob) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const ArithmeticKnob& knob : ArithmeticKnobs()) {
    if (knob.integral) {
      continue;
    }
    for (const double value : {std::nan(""), inf, -inf}) {
      EXPECT_EQ(ValidateConfig(DefaultsWith(knob.index, value)), knob.name + " must be finite")
          << "value " << value;
    }
  }
}

TEST(ValidateConfigTest, RejectsConfigsTheRunWouldAbortOn) {
  PadConfig config;
  config.planner.sla_target = 1.0;  // The planner needs a miss budget.
  EXPECT_EQ(ValidateConfig(config), "planner.sla_target must be in (0, 1)");

  // No sale epoch fits unless a whole deadline follows the warmup.
  config = PadConfig{};
  config.population.horizon_s = config.WarmupS() + config.deadline_s - 1.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "population.horizon_s"));
  config.population.horizon_s += 1.0;
  EXPECT_EQ(ValidateConfig(config), "");

  config = PadConfig{};
  config.use_noisy_oracle = true;
  config.oracle_noise_sigma = -1.0;
  EXPECT_TRUE(MessageNames(ValidateConfig(config), "oracle_noise_sigma"));
  config.oracle_noise_sigma = 0.0;
  EXPECT_EQ(ValidateConfig(config), "");

  config = PadConfig{};
  config.overbooking_factor = std::nan("");
  EXPECT_EQ(ValidateConfig(config), "overbooking_factor must be finite");
}

}  // namespace
}  // namespace pad
