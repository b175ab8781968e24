// Workload expansion: turns foreground sessions into the two event streams
// everything downstream consumes —
//   * network transfers (fed to the radio energy model), and
//   * ad slots (display opportunities, fed to predictors and the ad system).
//
// The baseline expansion reproduces today's ad path: every slot triggers an
// on-demand kAdFetch transfer at slot time. PAD-mode consumers instead take
// the slot stream and generate their own kAdPrefetch / kSlotReport traffic.
#ifndef ADPAD_SRC_APPS_WORKLOAD_H_
#define ADPAD_SRC_APPS_WORKLOAD_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/apps/app_profile.h"
#include "src/radio/transfer.h"
#include "src/trace/session.h"

namespace pad {

// One ad display opportunity.
struct SlotEvent {
  int user_id = 0;
  int app_id = 0;
  double time = 0.0;
};

struct WorkloadOptions {
  // Emit a kAdFetch transfer per slot (the no-prefetching baseline).
  bool on_demand_ads = true;
  // Emit the app's own traffic (launch + periodic content).
  bool app_content = true;
  // Skip sessions starting before this time. Expanding with a threshold is
  // equivalent to filtering the population first (sessions expand
  // independently and both streams are sorted afterwards), without copying
  // every kept session the way FilterPopulation does.
  double min_session_start = -std::numeric_limits<double>::infinity();
};

struct UserWorkload {
  int user_id = 0;
  std::vector<Transfer> transfers;  // Sorted by request_time.
  std::vector<SlotEvent> slots;     // Sorted by time.
  double foreground_s = 0.0;        // Total session time.
  double local_energy_j = 0.0;      // CPU+display energy over sessions.
};

// Calls fn(t) for each ad slot of one session: one at launch, then one per
// completed refresh period (a slot within 1e-9 s past the end still counts).
// The one definition of slot times, shared by workload expansion and the
// window counter (prediction/slot_series.h), so the two cannot drift apart.
template <typename Fn>
void ForEachSlotTime(const AppProfile& app, const Session& session, Fn&& fn) {
  if (!app.has_ads || app.ad_refresh_s <= 0.0) {
    return;
  }
  for (double t = session.start_time; t <= session.end_time() + 1e-9; t += app.ad_refresh_s) {
    fn(t);
  }
}

// Interns the (bytes, direction, category) shapes of transfers, so a stream
// of transfers can be kept as (time, kind) pairs and rebuilt exactly. Kinds
// start at 1, leaving 0 free for a caller's own use. Content transfers come
// in at most two shapes per app (launch and periodic), so the table stays
// tiny and a linear search beats hashing. Bytes compare by bit pattern, so
// At() rebuilds a bit-identical transfer.
class TransferShapes {
 public:
  uint32_t KindOf(const Transfer& transfer);

  Transfer At(uint32_t kind, double request_time) const {
    Transfer transfer = shapes_[kind - 1];
    transfer.request_time = request_time;
    return transfer;
  }

 private:
  std::vector<Transfer> shapes_;
};

// Expands one user's sessions against the catalog.
UserWorkload ExpandUser(const AppCatalog& catalog, const UserTrace& user,
                        const WorkloadOptions& options);

// In-place variant: clears and refills `out`, reusing its vector capacity.
// The per-market loop calls this with one scratch workload so steady state
// performs no heap allocation per user.
void ExpandUserInto(const AppCatalog& catalog, const UserTrace& user,
                    const WorkloadOptions& options, UserWorkload& out);

// Expands every user in the population.
std::vector<UserWorkload> ExpandPopulation(const AppCatalog& catalog,
                                           const Population& population,
                                           const WorkloadOptions& options);

// Just the slot stream for one user (cheaper when transfers are not needed).
std::vector<SlotEvent> SlotsForUser(const AppCatalog& catalog, const UserTrace& user);

}  // namespace pad

#endif  // ADPAD_SRC_APPS_WORKLOAD_H_
