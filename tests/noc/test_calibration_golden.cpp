// Calibration goldens: every CalibrationReport field of the kMeasured
// capture + replay, pinned to the values the deque-based fabric produced
// before the flat-storage rewrite.  Doubles are compared exactly (hex
// float literals): the fabric rewrite and the capture early stop are
// pure speedups and must not move a single bit of the calibration.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "em2/trace_sim.hpp"
#include "em2ra/hybrid_sim.hpp"
#include "noc/contention.hpp"
#include "noc/traffic.hpp"
#include "placement/placement.hpp"
#include "sim/faults.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

constexpr std::int32_t kThreads = 64;

struct Golden {
  std::uint64_t packets;
  Cycle cycles;
  bool drained;
  Cost measured_total_latency;
  std::array<std::uint64_t, vnet::kNumVnets> flits_by_vnet;
  std::array<double, vnet::kNumVnets> seen_by_vnet;
  std::array<double, vnet::kNumVnets> peak_by_vnet;
  double peak;
  std::uint64_t drops;
  std::uint64_t retransmissions;
};

/// The System::calibrate pipeline for a trace-mode kMeasured spec:
/// capped capture against the uncontended tables, prepare, replay with
/// the 2x-threads closed-loop window.
CalibrationReport calibrate(const std::string& workload, MemArch arch,
                            std::uint64_t cap,
                            const FaultSpec& faults = {}) {
  SystemConfig cfg;
  cfg.threads = kThreads;
  const System sys(cfg);
  const auto w = workload::make_workload(workload, kThreads);
  const auto placement =
      make_placement(cfg.placement, w.traces(), kThreads);
  std::vector<TrafficEvent> events;
  {
    TrafficRecorder recorder(cap);
    if (arch == MemArch::kEm2) {
      (void)run_em2(w.traces(), *placement, sys.mesh(), sys.cost_model(),
                    cfg.em2, &recorder);
    } else {
      StandardPolicy policy =
          StandardPolicy::make("distance:4", sys.mesh(), sys.cost_model());
      (void)run_em2ra(w.traces(), *placement, sys.mesh(), sys.cost_model(),
                      cfg.em2, policy, &recorder);
    }
    events = std::move(recorder.events());
  }
  prepare_calibration_events(events, cap);
  CalibrationOptions opts;
  opts.max_outstanding = 2 * kThreads;
  if (faults.any()) {
    const FaultInjector injector(faults, kThreads);
    return replay_on_fabric(sys.mesh(), sys.cost_model(), events, opts,
                            &injector);
  }
  return replay_on_fabric(sys.mesh(), sys.cost_model(), events, opts);
}

void expect_golden(const std::string& label, const CalibrationReport& r,
                   const Golden& g) {
  SCOPED_TRACE(label);
  EXPECT_EQ(r.packets, g.packets);
  EXPECT_EQ(r.cycles, g.cycles);
  EXPECT_EQ(r.drained, g.drained);
  EXPECT_EQ(r.measured_total_latency, g.measured_total_latency);
  EXPECT_EQ(r.drops, g.drops);
  EXPECT_EQ(r.retransmissions, g.retransmissions);
  const FabricUtilization& u = r.utilization;
  EXPECT_EQ(u.cycles, g.cycles);
  ASSERT_EQ(u.flits_by_vnet.size(), g.flits_by_vnet.size());
  ASSERT_EQ(u.seen_by_vnet.size(), g.seen_by_vnet.size());
  ASSERT_EQ(u.peak_by_vnet.size(), g.peak_by_vnet.size());
  for (std::size_t vn = 0; vn < g.flits_by_vnet.size(); ++vn) {
    EXPECT_EQ(u.flits_by_vnet[vn], g.flits_by_vnet[vn]) << "vnet " << vn;
    // Exact: the doubles are ratios of the integer link counters, so
    // any change in arbitration shows up here bit for bit.
    EXPECT_EQ(u.seen_by_vnet[vn], g.seen_by_vnet[vn]) << "vnet " << vn;
    EXPECT_EQ(u.peak_by_vnet[vn], g.peak_by_vnet[vn]) << "vnet " << vn;
  }
  EXPECT_EQ(u.peak, g.peak);
}

TEST(CalibrationGolden, OceanEm2) {
  expect_golden("ocean em2", calibrate("ocean", MemArch::kEm2, 20'000),
                {20000, 6396, true, 582052,
                 {155340, 154359, 0, 0, 0, 0},
                 {0x1.8b9a0c8cb8ad1p-2, 0x1.89cba0010fda6p-2, 0, 0, 0, 0},
                 {0x1.f850b0c01ebd4p-3, 0x1.1ebd3cff850b1p-2, 0, 0, 0, 0},
                 0x1.1ebd3cff850b1p-2, 0, 0});
}

TEST(CalibrationGolden, OceanEm2Ra) {
  expect_golden("ocean em2-ra",
                calibrate("ocean", MemArch::kEm2Ra, 20'000),
                {20000, 1664, true, 53656,
                 {16128, 15696, 9779, 9779, 0, 0},
                 {0x1.0b72a32a32a2fp-2, 0x1.0df782421f6f4p-2,
                  0x1.03e2304d2a929p-2, 0x1.04a271a4a0fa9p-2, 0, 0},
                 {0x1.09d89d89d89d9p-3, 0x1.09d89d89d89d9p-3,
                  0x1.33b13b13b13b1p-4, 0x1.33b13b13b13b1p-4, 0, 0},
                 0x1.09d89d89d89d9p-3, 0, 0});
}

TEST(CalibrationGolden, SharingMixEm2) {
  expect_golden("sharing-mix em2",
                calibrate("sharing-mix", MemArch::kEm2, 20'000),
                {20000, 9751, true, 1218429,
                 {555219, 399807, 0, 0, 0, 0},
                 {0x1.e7f43df997e53p-2, 0x1.e7ee90f2fd09ap-2, 0, 0, 0, 0},
                 {0x1.80ab625f67f04p-2, 0x1.0d5cf6e3d46b4p-2, 0, 0, 0, 0},
                 0x1.80ab625f67f04p-2, 0, 0});
}

TEST(CalibrationGolden, SharingMixEm2Ra) {
  expect_golden("sharing-mix em2-ra",
                calibrate("sharing-mix", MemArch::kEm2Ra, 20'000),
                {20000, 6793, true, 847685,
                 {389034, 278649, 9604, 9601, 0, 0},
                 {0x1.fc4528e88cb77p-2, 0x1.fbf79326cea47p-2,
                  0x1.f282d99b0bdcbp-2, 0x1.f357897e67076p-2, 0, 0},
                 {0x1.8c2758126404bp-2, 0x1.1f9e517a1081ap-2,
                  0x1.28a9bcb16ccc9p-6, 0x1.e26100dde4f11p-7, 0, 0},
                 0x1.8c2758126404bp-2, 0, 0});
}

TEST(CalibrationGolden, LossyReplayThroughReliableTransport) {
  FaultSpec lossy;
  lossy.drop_rate = 0.05;
  lossy.seed = 3;
  expect_golden("ocean em2 lossy",
                calibrate("ocean", MemArch::kEm2, 2'000, lossy),
                {2000, 2295, true, 44437,
                 {18509, 17868, 0, 0, 0, 0},
                 {0x1.121a3ef8173fcp-3, 0x1.124f6bc02fac1p-3, 0, 0, 0, 0},
                 {0x1.935a76e8afcc4p-4, 0x1.e018fc8ac3a73p-4, 0, 0, 0, 0},
                 0x1.e018fc8ac3a73p-4, 246, 261});
}

}  // namespace
}  // namespace em2
