#include "src/apps/workload.h"

#include <algorithm>
#include <bit>

#include "src/common/check.h"

namespace pad {
namespace {

void ExpandSession(const AppProfile& app, const Session& session, const WorkloadOptions& options,
                   UserWorkload& out) {
  ForEachSlotTime(app, session, [&](double t) {
    out.slots.push_back(SlotEvent{session.user_id, session.app_id, t});
    if (options.on_demand_ads) {
      out.transfers.push_back(Transfer{.request_time = t,
                                       .bytes = app.ad_bytes,
                                       .direction = Direction::kDownlink,
                                       .category = TrafficCategory::kAdFetch});
    }
  });

  if (options.app_content) {
    if (app.launch_bytes > 0.0) {
      out.transfers.push_back(Transfer{.request_time = session.start_time,
                                       .bytes = app.launch_bytes,
                                       .direction = Direction::kDownlink,
                                       .category = TrafficCategory::kAppContent});
    }
    if (app.content_period_s > 0.0 && app.content_bytes > 0.0) {
      for (double t = session.start_time + app.content_period_s; t <= session.end_time();
           t += app.content_period_s) {
        out.transfers.push_back(Transfer{.request_time = t,
                                         .bytes = app.content_bytes,
                                         .direction = Direction::kDownlink,
                                         .category = TrafficCategory::kAppContent});
      }
    }
  }

  out.foreground_s += session.duration_s;
  out.local_energy_j += app.local_power_w * session.duration_s;
}

}  // namespace

uint32_t TransferShapes::KindOf(const Transfer& transfer) {
  const uint64_t bits = std::bit_cast<uint64_t>(transfer.bytes);
  for (size_t i = 0; i < shapes_.size(); ++i) {
    const Transfer& shape = shapes_[i];
    if (std::bit_cast<uint64_t>(shape.bytes) == bits && shape.direction == transfer.direction &&
        shape.category == transfer.category) {
      return static_cast<uint32_t>(i + 1);
    }
  }
  shapes_.push_back(transfer);
  return static_cast<uint32_t>(shapes_.size());
}

UserWorkload ExpandUser(const AppCatalog& catalog, const UserTrace& user,
                        const WorkloadOptions& options) {
  UserWorkload workload;
  ExpandUserInto(catalog, user, options, workload);
  return workload;
}

void ExpandUserInto(const AppCatalog& catalog, const UserTrace& user,
                    const WorkloadOptions& options, UserWorkload& out) {
  out.user_id = user.user_id;
  out.transfers.clear();
  out.slots.clear();
  out.foreground_s = 0.0;
  out.local_energy_j = 0.0;
  for (const Session& session : user.sessions) {
    if (session.start_time < options.min_session_start) {
      continue;
    }
    ExpandSession(catalog.Get(session.app_id), session, options, out);
  }
  std::sort(out.transfers.begin(), out.transfers.end(),
            [](const Transfer& a, const Transfer& b) { return a.request_time < b.request_time; });
  std::sort(out.slots.begin(), out.slots.end(),
            [](const SlotEvent& a, const SlotEvent& b) { return a.time < b.time; });
}

std::vector<UserWorkload> ExpandPopulation(const AppCatalog& catalog,
                                           const Population& population,
                                           const WorkloadOptions& options) {
  std::vector<UserWorkload> workloads;
  workloads.reserve(population.users.size());
  for (const UserTrace& user : population.users) {
    workloads.push_back(ExpandUser(catalog, user, options));
  }
  return workloads;
}

std::vector<SlotEvent> SlotsForUser(const AppCatalog& catalog, const UserTrace& user) {
  WorkloadOptions options;
  options.on_demand_ads = false;
  options.app_content = false;
  return ExpandUser(catalog, user, options).slots;
}

}  // namespace pad
