#include "src/core/config.h"

#include <cmath>
#include <sstream>
#include <string_view>

namespace pad {
namespace {

// What a knob must be when `value` is outside `range` ("must be positive",
// "must be in [0, 1]", ...); the empty string when it is inside.
std::string RangeError(double value, const KnobRange& range) {
  if (!std::isfinite(value)) {
    return "must be finite";
  }
  if ((range.low_open ? value > range.low : value >= range.low) &&
      (range.high_open ? value < range.high : value <= range.high)) {
    return "";
  }
  std::ostringstream out;
  out << "must be ";
  if (std::isfinite(range.high)) {
    out << "in " << (range.low_open ? '(' : '[') << range.low << ", " << range.high
        << (range.high_open ? ')' : ']');
  } else if (range.low == 0.0) {
    out << (range.low_open ? "positive" : "non-negative");
  } else {
    out << (range.low_open ? "greater than " : "at least ") << range.low;
  }
  return out.str();
}

}  // namespace

std::string ValidateConfig(const PadConfig& config) {
  std::string error;
  ForEachKnob(config, [&error](std::string_view name, const auto& field, const KnobRange& range) {
    using Field = std::remove_cvref_t<decltype(field)>;
    if constexpr (std::is_arithmetic_v<Field> && !std::is_same_v<Field, bool>) {
      const std::string problem = RangeError(static_cast<double>(field), range);
      if (error.empty() && !problem.empty()) {
        error = std::string(name) + " " + problem;
      }
    }
  });
  if (!error.empty()) {
    return error;
  }

  // --- Rules that tie knobs together -------------------------------------
  const double windows_per_day = kDay / config.prediction_window_s;
  if (std::fabs(windows_per_day - std::round(windows_per_day)) >= 1e-9 ||
      windows_per_day < 1.0 - 1e-9) {
    return "prediction_window_s must divide a day evenly";
  }
  // Guard the epoch derivation (EpochS) against degenerate ratios before its
  // int cast, then against the nonsensical epoch > deadline combination.
  if (std::ceil(config.prediction_window_s / (config.deadline_s / 2.0)) > 86400.0) {
    return "deadline_s is too small relative to prediction_window_s";
  }
  if (config.EpochS() > config.deadline_s + 1e-9) {
    return "derived sale epoch exceeds deadline_s; shrink prediction_window_s or widen deadline_s";
  }
  // Sale epochs start when warmup ends and need a whole deadline before the
  // horizon.
  if (config.population.horizon_s < config.WarmupS() + config.deadline_s) {
    return "population.horizon_s must be at least warmup_days + deadline_s";
  }
  if (config.use_noisy_oracle && config.oracle_noise_sigma < 0.0) {
    return "oracle_noise_sigma must be non-negative when use_noisy_oracle is set";
  }
  const FaultConfig& faults = config.faults;
  if (faults.report_drop_rate + faults.report_delay_rate > 1.0 + 1e-12) {
    return "faults.report_drop_rate + faults.report_delay_rate must not exceed 1";
  }
  if (faults.offline_rate > 0.0 && !(faults.offline_window_s > 0.0)) {
    return "faults.offline_window_s must be positive when faults.offline_rate is set";
  }
  return "";
}

}  // namespace pad
