#include "src/core/event_log.h"

#include <bit>
#include <ostream>

#include "src/common/check.h"
#include "src/common/csv.h"
#include "src/common/units.h"

namespace pad {

const char* SimEventTypeName(SimEventType type) {
  switch (type) {
    case SimEventType::kSale:
      return "sale";
    case SimEventType::kDispatch:
      return "dispatch";
    case SimEventType::kRescue:
      return "rescue";
    case SimEventType::kBilledDisplay:
      return "billed_display";
    case SimEventType::kExcessDisplay:
      return "excess_display";
    case SimEventType::kViolation:
      return "violation";
    case SimEventType::kReportDrop:
      return "report_drop";
    case SimEventType::kFetchFailure:
      return "fetch_failure";
    case SimEventType::kSyncMiss:
      return "sync_miss";
    case SimEventType::kOfflineEpoch:
      return "offline_epoch";
  }
  return "unknown";
}

namespace {

// FNV-1a over each field's 8 little-endian bytes (never whole-struct bytes:
// padding is indeterminate and would poison the hash). client_id is
// sign-extended, so the market events' -1 folds as eight 0xff bytes.
uint64_t FoldEvent(uint64_t hash, const SimEvent& event) {
  hash = FnvFoldU64(hash, std::bit_cast<uint64_t>(event.time));
  hash = FnvFoldU64(hash, static_cast<uint64_t>(event.type));
  hash = FnvFoldU64(hash, static_cast<uint64_t>(event.impression_id));
  hash = FnvFoldU64(hash, static_cast<uint64_t>(event.campaign_id));
  hash = FnvFoldU64(hash, static_cast<uint64_t>(static_cast<int64_t>(event.client_id)));
  return FnvFoldU64(hash, std::bit_cast<uint64_t>(event.value));
}

}  // namespace

EventLog EventLog::DigestOnly() {
  EventLog log;
  log.retain_events_ = false;
  return log;
}

void EventLog::Record(const SimEvent& event) {
  ++counts_[static_cast<size_t>(event.type)];
  digest_ = FoldEvent(digest_, event);
  if (retain_events_) {
    events_.push_back(event);
  }
}

void EventLog::OnSale(double time, int64_t impression_id, int64_t campaign_id, double price) {
  Record(SimEvent{time, SimEventType::kSale, impression_id, campaign_id, -1, price});
}

void EventLog::OnBilledDisplay(double time, int64_t impression_id, int64_t campaign_id,
                               double price) {
  Record(SimEvent{time, SimEventType::kBilledDisplay, impression_id, campaign_id, -1, price});
}

void EventLog::OnExcessDisplay(double time, int64_t impression_id) {
  Record(SimEvent{time, SimEventType::kExcessDisplay, impression_id, 0, -1, 0.0});
}

void EventLog::OnViolation(double deadline, int64_t impression_id, int64_t campaign_id,
                           double price) {
  Record(SimEvent{deadline, SimEventType::kViolation, impression_id, campaign_id, -1, price});
}

void EventLog::OnDispatch(double time, int64_t impression_id, int64_t campaign_id,
                          int client_id, bool rescue) {
  Record(SimEvent{time, rescue ? SimEventType::kRescue : SimEventType::kDispatch,
                  impression_id, campaign_id, client_id, 0.0});
}

void EventLog::OnFault(double time, SimEventType type, int client_id) {
  PAD_CHECK(type >= SimEventType::kReportDrop && type <= SimEventType::kOfflineEpoch);
  Record(SimEvent{time, type, 0, 0, client_id, 0.0});
}

int64_t EventLog::CountOf(SimEventType type) const {
  return counts_[static_cast<size_t>(type)];
}

void EventLog::WriteCsv(std::ostream& out) const {
  CsvWriter writer(out);
  writer.WriteRow({"time", "type", "impression_id", "campaign_id", "client_id", "value"});
  for (const SimEvent& event : events_) {
    writer.WriteRow({CsvWriter::Field(event.time), SimEventTypeName(event.type),
                     CsvWriter::Field(event.impression_id),
                     CsvWriter::Field(event.campaign_id), CsvWriter::Field(event.client_id),
                     CsvWriter::Field(event.value)});
  }
}

std::array<int64_t, 24> EventLog::ByHourOfDay(SimEventType type) const {
  std::array<int64_t, 24> histogram{};
  for (const SimEvent& event : events_) {
    if (event.type == type) {
      ++histogram[static_cast<size_t>(HourOfDay(event.time)) % 24];
    }
  }
  return histogram;
}

std::map<int64_t, EventLog::CampaignOutcome> EventLog::PerCampaign() const {
  std::map<int64_t, CampaignOutcome> outcomes;
  for (const SimEvent& event : events_) {
    switch (event.type) {
      case SimEventType::kSale:
        ++outcomes[event.campaign_id].sold;
        break;
      case SimEventType::kBilledDisplay: {
        CampaignOutcome& outcome = outcomes[event.campaign_id];
        ++outcome.billed;
        outcome.revenue += event.value;
        break;
      }
      case SimEventType::kViolation:
        ++outcomes[event.campaign_id].violated;
        break;
      default:
        break;
    }
  }
  return outcomes;
}

}  // namespace pad
