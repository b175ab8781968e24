// Structured event log of a simulation run.
//
// When attached to RunPad, every market and dispatch event is recorded with
// its timestamp: what sold, where replicas went, which rescues fired, what
// billed, what expired. The log exports to CSV for offline analysis and
// offers the summaries a policy debugger reaches for first (events by hour
// of day, per-campaign fill rates).
//
// Every recorded event is folded into a running FNV-1a digest as it
// arrives. A default-constructed log also keeps the events; a digest-only
// log (EventLog::DigestOnly(), what the shard engine's SimulateMarket uses)
// keeps just the digest and the per-type counts, so a market's event stream
// is hashed without buffering it.
#ifndef ADPAD_SRC_CORE_EVENT_LOG_H_
#define ADPAD_SRC_CORE_EVENT_LOG_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <vector>

#include "src/auction/ledger_observer.h"
#include "src/common/bytes.h"

namespace pad {

enum class SimEventType : uint8_t {
  kSale = 0,           // Impression sold in the exchange.
  kDispatch = 1,       // Replica assigned to a client.
  kRescue = 2,         // Extra replica from the rescue pass.
  kBilledDisplay = 3,  // First timely display (earns revenue).
  kExcessDisplay = 4,  // Duplicate/late display (wasted slot).
  kViolation = 5,      // Deadline passed undisplayed.
  // Fault-injection events (core/faults.h); absent in fault-free runs.
  kReportDrop = 6,     // A client's slot report was lost or delayed.
  kFetchFailure = 7,   // A bundle download attempt failed at a wakeup.
  kSyncMiss = 8,       // A client missed a sync epoch (invalidations lost).
  kOfflineEpoch = 9,   // A client was offline at sale time (no dispatch).
};
inline constexpr int kNumSimEventTypes = 10;

const char* SimEventTypeName(SimEventType type);

struct SimEvent {
  double time = 0.0;
  SimEventType type = SimEventType::kSale;
  int64_t impression_id = 0;
  int64_t campaign_id = 0;  // 0 when unknown (excess of a forgotten sale).
  int client_id = -1;       // Only for dispatch/rescue events.
  double value = 0.0;       // Clearing price for market events.
};

class EventLog : public LedgerObserver {
 public:
  // Keeps every event.
  EventLog() = default;
  // Keeps only the digest and the per-type counts; events() stays empty and
  // the summaries below see no events.
  static EventLog DigestOnly();

  // LedgerObserver:
  void OnSale(double time, int64_t impression_id, int64_t campaign_id, double price) override;
  void OnBilledDisplay(double time, int64_t impression_id, int64_t campaign_id,
                       double price) override;
  void OnExcessDisplay(double time, int64_t impression_id) override;
  void OnViolation(double deadline, int64_t impression_id, int64_t campaign_id,
                   double price) override;

  // Dispatch-side events (recorded by the PAD server).
  void OnDispatch(double time, int64_t impression_id, int64_t campaign_id, int client_id,
                  bool rescue);

  // Fault events (recorded by clients and the server when fault injection is
  // enabled). `type` must be one of the kReportDrop..kOfflineEpoch types.
  void OnFault(double time, SimEventType type, int client_id);

  std::span<const SimEvent> events() const { return events_; }
  int64_t CountOf(SimEventType type) const;

  // CSV export: time,type,impression_id,campaign_id,client_id,value.
  void WriteCsv(std::ostream& out) const;

  // FNV-1a digest over every field of every event, in order. Two logs with
  // equal digests recorded byte-identical event streams; the parallel
  // determinism tests compare serial and threaded runs through this. Equal
  // for a retaining and a digest-only log fed the same events.
  uint64_t Digest() const { return digest_; }

  // Events of one type bucketed by hour of day (24 bins, counts).
  std::array<int64_t, 24> ByHourOfDay(SimEventType type) const;

  // Per-campaign outcome summary.
  struct CampaignOutcome {
    int64_t sold = 0;
    int64_t billed = 0;
    int64_t violated = 0;
    double revenue = 0.0;

    double FillRate() const {
      return sold > 0 ? static_cast<double>(billed) / static_cast<double>(sold) : 0.0;
    }
  };
  std::map<int64_t, CampaignOutcome> PerCampaign() const;

 private:
  void Record(const SimEvent& event);

  bool retain_events_ = true;
  std::vector<SimEvent> events_;
  std::array<int64_t, kNumSimEventTypes> counts_{};
  uint64_t digest_ = kFnvOffset;
};

}  // namespace pad

#endif  // ADPAD_SRC_CORE_EVENT_LOG_H_
