// E9 — The radio power-model table (profile parameters) and a validation of
// the event-driven machine against closed forms. These are the substituted
// counterpart of the paper's power-meter methodology section.
#include "bench/bench_util.h"

#include "src/radio/machine.h"

namespace pad {
namespace {

void Run(bench::BenchJson& json) {
  const std::vector<RadioProfile> profiles = {ThreeGProfile(), LteProfile(), WifiProfile(),
                                              IdealProfile()};

  PrintBanner(std::cout, "E9: radio profile parameters");
  TextTable params({"radio", "promo_s", "promo_mW", "active_mW", "down_mbps", "up_mbps",
                    "rtt_ms", "tail_s", "tail_J"});
  for (const RadioProfile& profile : profiles) {
    params.AddRow({profile.name, FormatDouble(profile.promo_latency_s, 2),
                   FormatDouble(profile.promo_power_w * 1000.0, 0),
                   FormatDouble(profile.active_power_w * 1000.0, 0),
                   FormatDouble(profile.downlink_bps / 1e6, 1),
                   FormatDouble(profile.uplink_bps / 1e6, 1),
                   FormatDouble(profile.rtt_s * 1000.0, 0),
                   FormatDouble(profile.TotalTailDuration(), 1),
                   FormatDouble(profile.TotalTailEnergy(), 2)});
  }
  params.Print(std::cout);

  PrintBanner(std::cout, "E9: tail phases");
  TextTable phases({"radio", "phase", "power_mW", "duration_s", "resume_s"});
  for (const RadioProfile& profile : profiles) {
    for (const TailPhase& phase : profile.tail) {
      phases.AddRow({profile.name, phase.name, FormatDouble(phase.power_w * 1000.0, 0),
                     FormatDouble(phase.duration_s, 1),
                     FormatDouble(phase.resume_latency_s, 1)});
    }
  }
  phases.Print(std::cout);

  PrintBanner(std::cout, "E9: machine vs closed form, isolated transfers (J)");
  TextTable validation({"radio", "bytes", "closed_form", "machine", "delta"});
  for (const RadioProfile& profile : profiles) {
    for (double kib : {1.0, 3.0, 50.0, 1024.0}) {
      const double bytes = kib * kKiB;
      const double closed = profile.IsolatedTransferEnergy(bytes, false);
      const std::vector<Transfer> one = {Transfer{.request_time = 0.0,
                                                  .bytes = bytes,
                                                  .direction = Direction::kDownlink,
                                                  .category = TrafficCategory::kOther}};
      const double machine = SimulateTransfers(profile, one, 1e9).total_energy_j();
      validation.AddRow({profile.name, FormatDouble(kib, 0) + "KiB", FormatDouble(closed, 3),
                         FormatDouble(machine, 3), FormatDouble(machine - closed, 6)});
      json.Add("isolated_transfer_j", machine, "J",
               "radio=" + std::string(profile.name) + " kib=" + FormatDouble(kib, 0));
    }
  }
  validation.Print(std::cout);
}

}  // namespace

bench::Experiment bench::RadioModel(const Options& /*options*/) {
  return [](BenchJson& json) {
    Run(json);
    return 0;
  };
}

}  // namespace pad
