#include "src/prediction/slot_series.h"

#include <cmath>

#include "src/common/check.h"
#include "src/common/units.h"

namespace pad {

int SlotSeries::WindowsPerDay() const {
  PAD_CHECK(window_s > 0.0);
  const double exact = kDay / window_s;
  const int windows = static_cast<int>(std::lround(exact));
  PAD_CHECK_MSG(std::fabs(exact - windows) < 1e-9 && windows >= 1,
                "prediction window must divide a day evenly");
  return windows;
}

int SlotSeries::WindowOfDay(int window_index) const {
  PAD_CHECK(window_index >= 0);
  return window_index % WindowsPerDay();
}

int64_t SlotSeries::TotalSlots() const {
  int64_t total = 0;
  for (int c : counts) {
    total += c;
  }
  return total;
}

namespace {

// An all-zero series covering the horizon, and the binning step that fills
// it: BinSlots and CountSlots share both, so they place every slot alike.
SlotSeries EmptySeries(double horizon_s, double window_s) {
  PAD_CHECK(window_s > 0.0);
  PAD_CHECK(horizon_s > 0.0);
  SlotSeries series;
  series.window_s = window_s;
  const int num_windows = static_cast<int>(std::ceil(horizon_s / window_s));
  series.counts.assign(static_cast<size_t>(num_windows), 0);
  return series;
}

void CountSlot(double time, SlotSeries& series) {
  const int w = static_cast<int>(time / series.window_s);
  if (w >= 0 && w < series.num_windows()) {
    ++series.counts[static_cast<size_t>(w)];
  }
}

}  // namespace

SlotSeries BinSlots(std::span<const SlotEvent> slots, double horizon_s, double window_s) {
  SlotSeries series = EmptySeries(horizon_s, window_s);
  for (const SlotEvent& slot : slots) {
    CountSlot(slot.time, series);
  }
  return series;
}

SlotSeries CountSlots(const AppCatalog& catalog, const UserTrace& user, double horizon_s,
                      double window_s) {
  SlotSeries series = EmptySeries(horizon_s, window_s);
  for (const Session& session : user.sessions) {
    ForEachSlotTime(catalog.Get(session.app_id), session,
                    [&series](double t) { CountSlot(t, series); });
  }
  return series;
}

}  // namespace pad
