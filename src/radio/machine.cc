#include "src/radio/machine.h"

#include <algorithm>

#include "src/common/check.h"

namespace pad {

double EnergyReport::total_energy_j() const {
  double total = 0.0;
  for (const CategoryEnergy& category : by_category) {
    total += category.total_j();
  }
  return total;
}

double EnergyReport::total_bytes() const {
  double total = 0.0;
  for (const CategoryEnergy& category : by_category) {
    total += category.bytes;
  }
  return total;
}

int64_t EnergyReport::total_transfers() const {
  int64_t total = 0;
  for (const CategoryEnergy& category : by_category) {
    total += category.transfers;
  }
  return total;
}

double EnergyReport::CategoryShare(TrafficCategory category) const {
  const double total = total_energy_j();
  if (total <= 0.0) {
    return 0.0;
  }
  return For(category).total_j() / total;
}

void EnergyReport::Merge(const EnergyReport& other) {
  for (size_t i = 0; i < by_category.size(); ++i) {
    by_category[i].transfer_j += other.by_category[i].transfer_j;
    by_category[i].tail_j += other.by_category[i].tail_j;
    by_category[i].bytes += other.by_category[i].bytes;
    by_category[i].transfers += other.by_category[i].transfers;
  }
  promo_time_s += other.promo_time_s;
  active_time_s += other.active_time_s;
  tail_time_s += other.tail_time_s;
}

RadioMachine::RadioMachine(RadioProfile profile) : profile_(std::move(profile)) {
  profile_.Validate();
}

double RadioMachine::PayTailAndGetResumeLatency(double until) {
  PAD_DCHECK(until >= busy_until_);
  const double gap = until - busy_until_;
  CategoryEnergy& attribution = report_.For(last_category_);
  double consumed = 0.0;
  for (const TailPhase& phase : profile_.tail) {
    const double in_phase = std::min(gap - consumed, phase.duration_s);
    if (in_phase > 0.0) {
      attribution.tail_j += phase.power_w * in_phase;
      report_.tail_time_s += in_phase;
    }
    if (gap < consumed + phase.duration_s) {
      // Activity resumes while the radio is still in this phase.
      return phase.resume_latency_s;
    }
    consumed += phase.duration_s;
  }
  // The whole tail elapsed; the radio is idle and must promote from scratch.
  return profile_.promo_latency_s;
}

RadioMachine::Result RadioMachine::Submit(const Transfer& transfer) {
  PAD_CHECK_MSG(!finalized_, "Submit after Finalize");
  PAD_CHECK_MSG(transfer.request_time >= last_request_time_,
                "transfers must be submitted in request-time order");
  PAD_CHECK(transfer.bytes >= 0.0);
  last_request_time_ = transfer.request_time;

  // A transfer requested while the data plane is busy queues behind it.
  const double arrival = std::max(transfer.request_time, busy_until_);
  const double resume_latency =
      has_activity_ ? PayTailAndGetResumeLatency(arrival) : profile_.promo_latency_s;

  const bool uplink = transfer.direction == Direction::kUplink;
  const double start = arrival + resume_latency;
  const double duration = profile_.TransferDuration(transfer.bytes, uplink);
  const double completion = start + duration;

  CategoryEnergy& category = report_.For(transfer.category);
  category.transfer_j +=
      profile_.promo_power_w * resume_latency + profile_.active_power_w * duration;
  category.bytes += transfer.bytes;
  category.transfers += 1;
  report_.promo_time_s += resume_latency;
  report_.active_time_s += duration;

  busy_until_ = completion;
  has_activity_ = true;
  last_category_ = transfer.category;
  return Result{start, completion};
}

void RadioMachine::SubmitAll(std::span<const Transfer> transfers) {
  PAD_CHECK_MSG(!finalized_, "SubmitAll after Finalize");
  if (transfers.empty()) {
    return;
  }
  // Hot state lives in locals for the whole fold; the per-transfer work is
  // straight-line arithmetic on registers plus the category accumulators.
  // Every floating-point operation matches Submit()'s order exactly, so the
  // fold is byte-identical to the per-event path.
  const double promo_latency_s = profile_.promo_latency_s;
  const double promo_power_w = profile_.promo_power_w;
  const double active_power_w = profile_.active_power_w;
  const double rtt_s = profile_.rtt_s;
  const double downlink_bps = profile_.downlink_bps;
  const double uplink_bps = profile_.uplink_bps;
  const TailPhase* const tail = profile_.tail.data();
  const size_t tail_phases = profile_.tail.size();

  double busy_until = busy_until_;
  double last_request_time = last_request_time_;
  bool has_activity = has_activity_;
  TrafficCategory last_category = last_category_;
  double promo_time_s = report_.promo_time_s;
  double active_time_s = report_.active_time_s;
  double tail_time_s = report_.tail_time_s;

  for (const Transfer& transfer : transfers) {
    PAD_DCHECK(transfer.request_time >= last_request_time);
    PAD_DCHECK(transfer.bytes >= 0.0);
    last_request_time = transfer.request_time;

    const double arrival = std::max(transfer.request_time, busy_until);
    double resume_latency = promo_latency_s;
    if (has_activity) {
      // Inlined PayTailAndGetResumeLatency with the residency accumulator in
      // a register; falls through with the idle promotion latency when the
      // whole tail elapsed, exactly like the out-of-line version.
      const double gap = arrival - busy_until;
      CategoryEnergy& attribution = report_.For(last_category);
      double consumed = 0.0;
      for (size_t p = 0; p < tail_phases; ++p) {
        const TailPhase& phase = tail[p];
        const double in_phase = std::min(gap - consumed, phase.duration_s);
        if (in_phase > 0.0) {
          attribution.tail_j += phase.power_w * in_phase;
          tail_time_s += in_phase;
        }
        if (gap < consumed + phase.duration_s) {
          resume_latency = phase.resume_latency_s;
          break;
        }
        consumed += phase.duration_s;
      }
    }

    const bool uplink = transfer.direction == Direction::kUplink;
    const double start = arrival + resume_latency;
    const double rate = uplink ? uplink_bps : downlink_bps;
    const double duration = rtt_s + transfer.bytes * 8.0 / rate;
    const double completion = start + duration;

    CategoryEnergy& category = report_.For(transfer.category);
    category.transfer_j += promo_power_w * resume_latency + active_power_w * duration;
    category.bytes += transfer.bytes;
    category.transfers += 1;
    promo_time_s += resume_latency;
    active_time_s += duration;

    busy_until = completion;
    has_activity = true;
    last_category = transfer.category;
  }

  busy_until_ = busy_until;
  last_request_time_ = last_request_time;
  has_activity_ = has_activity;
  last_category_ = last_category;
  report_.promo_time_s = promo_time_s;
  report_.active_time_s = active_time_s;
  report_.tail_time_s = tail_time_s;
}

void RadioMachine::Reset() {
  report_ = EnergyReport{};
  busy_until_ = 0.0;
  last_request_time_ = 0.0;
  has_activity_ = false;
  finalized_ = false;
  last_category_ = TrafficCategory::kOther;
}

void RadioMachine::Finalize(double end_time) {
  PAD_CHECK_MSG(!finalized_, "Finalize called twice");
  finalized_ = true;
  if (!has_activity_ || end_time <= busy_until_) {
    return;
  }
  const double tail_end = std::min(end_time, busy_until_ + profile_.TotalTailDuration());
  (void)PayTailAndGetResumeLatency(tail_end);
}

EnergyReport SimulateTransfers(const RadioProfile& profile, std::span<const Transfer> transfers,
                               double end_time) {
  RadioMachine machine(profile);
  machine.SubmitAll(transfers);
  machine.Finalize(std::max(end_time, machine.busy_until()));
  return machine.report();
}

}  // namespace pad
