// Calibration-overhead bench for the contention-aware analytic path.
//
// RunSpec::contention = kMeasured is a two-pass flow: an analytic
// recording pass plus a short cycle-level replay, then the corrected
// analytic rerun.  This bench measures what that costs relative to the
// plain uncontended run — the whole point of the M/D/1 correction is to
// model saturation WITHOUT paying cycle-level cost on every sweep point,
// so the calibration overhead must stay a small multiple of the analytic
// run, not the orders of magnitude a full cycle-accurate simulation
// costs.  Also reports the differential (measured vs corrected-predicted
// total latency) so regressions in model quality are visible next to the
// overhead.
//
//   --json             one JSON object per (threads, workload, arch) row
//   --threads=N[,M..]  simulated threads, one mesh per entry (default
//                      16,256; 256 is the end-to-end benchmark's mesh,
//                      where the cycle-level replay dominates)
//   --contention=MODE  measured (default) | estimated
//   --repeat=N         timing repetitions, best-of (default 3)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "contention_flag.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const bool json = args.has("json");
  std::vector<std::int32_t> thread_counts;
  {
    const std::string list = args.get_string("threads", "16,256");
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string item =
          list.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      if (!item.empty()) {
        thread_counts.push_back(static_cast<std::int32_t>(std::stol(item)));
      }
      if (comma == std::string::npos) {
        break;
      }
      pos = comma + 1;
    }
  }
  const int repeat =
      std::max(1, static_cast<int>(args.get_int("repeat", 3)));
  const em2::ContentionMode contention =
      em2::benchutil::contention_flag_or_exit(args, "measured");
  if (contention == em2::ContentionMode::kNone) {
    std::fprintf(stderr,
                 "--contention=none has no calibration to measure; use "
                 "measured or estimated\n");
    return 1;
  }

  const std::vector<std::string> workload_names = {"ocean", "sharing-mix"};
  const std::vector<em2::MemArch> arches = {em2::MemArch::kEm2,
                                            em2::MemArch::kEm2Ra};

  em2::Table t({"threads", "workload", "arch", "base_ms", "corrected_ms",
                "warm_ms", "overhead", "cal_packets", "cal_cycles",
                "replay_kcyc/s", "util(seen)", "pred/meas"});
  for (const std::int32_t threads : thread_counts) {
    em2::SystemConfig cfg;
    cfg.threads = threads;
    for (const std::string& name : workload_names) {
      const auto w = em2::workload::make_workload(name, threads);
      for (const em2::MemArch arch : arches) {
        em2::RunSpec base{.arch = arch, .policy = "history"};
        em2::RunSpec corrected = base;
        corrected.contention = contention;

        double base_best = 1e30;
        double corr_best = 1e30;
        double warm_best = 1e30;
        // Calibration alone: the cold corrected run minus the plain run of
        // the same repetition (the corrected pass-2 rerun costs one).
        double cal_best = 1e30;
        em2::RunReport report;
        for (int i = 0; i < repeat; ++i) {
          // A fresh System per repetition: System memoizes the calibration
          // per (workload, arch, policy) — the cold timing below must
          // measure the real capture + replay, not a cache hit.
          em2::System sys(cfg);
          // Warm the placement cache so timings compare engine work, not
          // first-touch placement construction.
          (void)sys.run(w, base);
          auto t0 = std::chrono::steady_clock::now();
          (void)sys.run(w, base);
          const double base_s = seconds_since(t0);
          base_best = std::min(base_best, base_s);
          t0 = std::chrono::steady_clock::now();
          report = sys.run(w, corrected);
          const double corr_s = seconds_since(t0);
          corr_best = std::min(corr_best, corr_s);
          cal_best = std::min(cal_best, std::max(corr_s - base_s, 1e-9));
          // Memoized rerun: what every later same-row cell of a corrected
          // run_matrix sweep pays.
          t0 = std::chrono::steady_clock::now();
          (void)sys.run(w, corrected);
          warm_best = std::min(warm_best, seconds_since(t0));
        }
        const em2::RunReport::NocUtilization& noc = *report.noc;
        const double overhead = corr_best / base_best;
        const double accesses_per_sec =
            corr_best > 0 ? static_cast<double>(report.accesses) / corr_best
                          : 0.0;
        const double replay_cycles_per_sec =
            static_cast<double>(noc.calibration_cycles) / cal_best;
        const double flit_hops_per_sec =
            static_cast<double>(noc.calibration_flit_hops) / cal_best;
        const double util =
            *std::max_element(noc.utilization.begin(), noc.utilization.end());
        const double pred_over_meas =
            noc.calibration_drained && noc.measured_total_latency > 0
                ? static_cast<double>(noc.predicted_total_latency) /
                      static_cast<double>(noc.measured_total_latency)
                : 0.0;

        if (json) {
          em2::JsonWriter out;
          out.add("bench", "contention")
              .add("workload", name)
              .add("arch", em2::to_string(arch))
              .add("cores", static_cast<std::int64_t>(threads))
              .add("contention", em2::to_string(contention))
              .add("base_seconds", base_best)
              .add("corrected_seconds", corr_best)
              .add("corrected_warm_seconds", warm_best)
              .add("calibration_overhead", overhead)
              .add("memoized_overhead", warm_best / base_best)
              .add("accesses_per_sec", accesses_per_sec)
              .add("calibration_packets", noc.calibration_packets)
              .add("calibration_cycles", noc.calibration_cycles)
              .add("calibration_flit_hops", noc.calibration_flit_hops)
              .add("calibration_seconds", cal_best)
              .add("replay_cycles_per_sec", replay_cycles_per_sec)
              .add("flit_hops_per_sec", flit_hops_per_sec)
              .add("calibration_drained", noc.calibration_drained)
              .add("peak_vnet_utilization", util)
              .add("measured_total_latency", noc.measured_total_latency)
              .add("predicted_total_latency", noc.predicted_total_latency)
              .add("uncontended_total_latency", noc.uncontended_total_latency)
              .add("corrected_cost_per_access", report.cost_per_access);
          out.print();
        } else {
          t.begin_row()
              .add_cell(static_cast<std::uint64_t>(threads))
              .add_cell(name)
              .add_cell(em2::to_string(arch))
              .add_cell(base_best * 1e3, 2)
              .add_cell(corr_best * 1e3, 2)
              .add_cell(warm_best * 1e3, 2)
              .add_cell(overhead, 2)
              .add_cell(noc.calibration_packets)
              .add_cell(noc.calibration_cycles)
              .add_cell(replay_cycles_per_sec / 1e3, 1)
              .add_cell(util, 3);
          // No fabric replay under kEstimated (and no like-for-like
          // differential over an undrained one): the ratio does not apply.
          if (pred_over_meas > 0) {
            t.add_cell(pred_over_meas, 3);
          } else {
            t.add_cell("-");
          }
        }
      }
    }
  }

  if (!json) {
    std::printf("=== Contention calibration overhead (%s) ===\n\n",
                em2::to_string(contention));
    t.print(std::cout);
    std::printf(
        "\noverhead = COLD corrected run / plain analytic run (best of %d; "
        "each repetition uses a fresh System so the calibration cache "
        "cannot hide the capture + replay).  warm_ms is the memoized "
        "rerun — what later same-row cells of a corrected run_matrix "
        "sweep pay.  kMeasured pays one analytic recording pass + a "
        "bounded cycle-level replay (<= RunSpec::calibration_packets "
        "packets); kEstimated pays the recording pass only.  pred/meas is "
        "the corrected analytic prediction over the fabric's measurement "
        "for the calibration packets (1.0 = perfect).  replay_kcyc/s is "
        "replayed fabric cycles per second of calibration (cold corrected "
        "run minus plain run, same repetition).\n",
        repeat);
  }
  return 0;
}
