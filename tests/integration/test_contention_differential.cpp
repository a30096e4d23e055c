// Differential validation of the contention-corrected analytic path.
//
// Two claims, both on real registry workloads:
//   1. kMeasured: the corrected analytic total-latency prediction for the
//      calibration packets lands within a stated tolerance (40%) of what
//      the cycle-level fabric actually measured for the same packets, and
//      is strictly closer than the uncontended prediction — the
//      correction earns its keep.
//   2. kNone: reports stay bit-identical to the pre-contention goldens
//      across all three architectures (the correction is pay-to-play).
#include <gtest/gtest.h>

#include <cmath>

#include "api/system.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

constexpr double kTolerance = 0.40;  // |predicted - measured| / measured

double relative_error(Cost predicted, Cost measured) {
  return std::abs(static_cast<double>(predicted) -
                  static_cast<double>(measured)) /
         static_cast<double>(measured);
}

class ContentionDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ContentionDifferential, MeasuredPredictionWithinToleranceOfFabric) {
  SystemConfig cfg;
  cfg.threads = 16;
  System sys(cfg);
  const auto w = workload::make_workload(GetParam(), 16);
  for (const MemArch arch :
       {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    const RunReport r =
        sys.run(w, {.arch = arch, .policy = "history",
                    .contention = ContentionMode::kMeasured});
    ASSERT_TRUE(r.noc.has_value()) << to_string(arch);
    const RunReport::NocUtilization& n = *r.noc;
    EXPECT_EQ(n.contention, ContentionMode::kMeasured);
    ASSERT_GT(n.calibration_packets, 0u) << to_string(arch);
    // The differential is only like-for-like over a drained replay.
    ASSERT_TRUE(n.calibration_drained) << to_string(arch);
    ASSERT_GT(n.measured_total_latency, 0u) << to_string(arch);
    // The stated tolerance: corrected analytic vs cycle-level fabric,
    // over the identical packet set.
    EXPECT_LE(relative_error(n.predicted_total_latency,
                             n.measured_total_latency),
              kTolerance)
        << GetParam() << "/" << to_string(arch) << ": predicted "
        << n.predicted_total_latency << " vs measured "
        << n.measured_total_latency;
    // And the correction must beat the uncontended tables — strictly
    // closer to the fabric on every workload/arch pair under load.
    EXPECT_LE(relative_error(n.predicted_total_latency,
                             n.measured_total_latency),
              relative_error(n.uncontended_total_latency,
                             n.measured_total_latency))
        << GetParam() << "/" << to_string(arch);
  }
}

TEST_P(ContentionDifferential, CorrectionInflatesReportedCosts) {
  // Migration/remote costs can only grow under congestion, so the
  // corrected pure-EM2 report (same decisions, inflated tables) must cost
  // at least the uncontended one.
  SystemConfig cfg;
  cfg.threads = 16;
  System sys(cfg);
  const auto w = workload::make_workload(GetParam(), 16);
  const RunReport base = sys.run(w, {.arch = MemArch::kEm2});
  const RunReport measured =
      sys.run(w, {.arch = MemArch::kEm2,
                  .contention = ContentionMode::kMeasured});
  const RunReport estimated =
      sys.run(w, {.arch = MemArch::kEm2,
                  .contention = ContentionMode::kEstimated});
  EXPECT_GE(measured.network_cost, base.network_cost);
  EXPECT_GE(estimated.network_cost, base.network_cost);
  // Same protocol decisions either way: the counters must agree.
  EXPECT_EQ(measured.accesses, base.accesses);
  EXPECT_EQ(measured.migrations, base.migrations);
  EXPECT_EQ(estimated.migrations, base.migrations);
}

TEST(ContentionSpec, ZeroCalibrationBudgetFailsFastAtEntry) {
  SystemConfig cfg;
  cfg.threads = 16;
  System sys(cfg);
  const auto w = workload::make_workload("ocean", 16);
  EXPECT_THROW(sys.run(w, {.contention = ContentionMode::kMeasured,
                           .calibration_packets = 0}),
               std::invalid_argument);
}

TEST_P(ContentionDifferential, EstimatedModeNeedsNoFabricButReportsLoad) {
  SystemConfig cfg;
  cfg.threads = 16;
  System sys(cfg);
  const auto w = workload::make_workload(GetParam(), 16);
  const RunReport r = sys.run(
      w, {.arch = MemArch::kEm2, .contention = ContentionMode::kEstimated});
  ASSERT_TRUE(r.noc.has_value());
  EXPECT_EQ(r.noc->contention, ContentionMode::kEstimated);
  EXPECT_EQ(r.noc->calibration_packets, 0u);  // no cycle-level replay ran
  EXPECT_EQ(r.noc->measured_total_latency, 0u);
  EXPECT_GT(r.noc->utilization[vnet::kMigrationGuest], 0.0);
  EXPECT_GE(r.noc->corrected_per_hop[vnet::kMigrationGuest],
            static_cast<double>(cfg.cost.per_hop_cycles));
}

INSTANTIATE_TEST_SUITE_P(TwoRegistryWorkloads, ContentionDifferential,
                         ::testing::Values("ocean", "sharing-mix"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---- kNone golden regression --------------------------------------------
//
// Captured from the pre-contention tree (PR 4 seed) at 16 threads,
// first-touch placement, default params.  RunSpec::contention defaults to
// kNone, so these must never move unless the protocol engines themselves
// change — the contention layer is strictly opt-in.

struct Golden {
  const char* workload;
  MemArch arch;
  std::uint64_t accesses;
  std::uint64_t migrations;
  std::uint64_t evictions;
  std::uint64_t remote_accesses;
  Cost network_cost;
  std::uint64_t traffic_bits;
  std::uint64_t messages;
};

constexpr Golden kGoldens[] = {
    {"ocean", MemArch::kEm2, 61257, 7954, 54, 0, 77065, 8456448, 0},
    {"ocean", MemArch::kEm2Ra, 61257, 434, 0, 6199, 24038, 1053408, 0},
    {"ocean", MemArch::kCc, 61257, 0, 0, 0, 179536, 1149440, 5290},
    {"sharing-mix", MemArch::kEm2, 17920, 7789, 132, 0, 84469, 8364576, 0},
    {"sharing-mix", MemArch::kEm2Ra, 17920, 4, 0, 4639, 24758, 449568, 0},
    {"sharing-mix", MemArch::kCc, 17920, 0, 0, 0, 180987, 4270528, 18372},
};

TEST(ContentionGoldens, KNoneReportsBitIdenticalToPreContentionTree) {
  SystemConfig cfg;
  cfg.threads = 16;
  System sys(cfg);
  for (const Golden& g : kGoldens) {
    const auto w = workload::make_workload(g.workload, 16);
    const RunReport r = sys.run(w, {.arch = g.arch, .policy = "history"});
    EXPECT_FALSE(r.noc.has_value());
    EXPECT_EQ(r.accesses, g.accesses) << g.workload << to_string(g.arch);
    EXPECT_EQ(r.migrations, g.migrations) << g.workload << to_string(g.arch);
    EXPECT_EQ(r.evictions, g.evictions) << g.workload << to_string(g.arch);
    EXPECT_EQ(r.remote_accesses, g.remote_accesses)
        << g.workload << to_string(g.arch);
    EXPECT_EQ(r.network_cost, g.network_cost)
        << g.workload << to_string(g.arch);
    EXPECT_EQ(r.traffic_bits, g.traffic_bits)
        << g.workload << to_string(g.arch);
    EXPECT_EQ(r.messages, g.messages) << g.workload << to_string(g.arch);
  }
}

// ---- kMeasured CC golden rows ---------------------------------------------
//
// CC under kMeasured at 64 threads, first-touch placement, default
// params.  The calibration replays the directory's packets in the order
// it sends them, so these values also pin the invalidation fan-out
// order: the full-map directory invalidates sharers in ascending core
// order (a join-order sharer list read lu's measured_total_latency as
// 250382 and calibration_cycles as 2542).

struct MeasuredCcGolden {
  const char* workload;
  double cost_per_access;
  Cost measured_total_latency;
  Cycle calibration_cycles;
};

constexpr MeasuredCcGolden kMeasuredCcGoldens[] = {
    {"lu", 3.1769831730769229, 249464, 2532},
    {"radix", 18.552426343154245, 1427759, 12685},
    {"sharing-mix", 13.166143932481752, 248096, 4621},
};

TEST(ContentionGoldens, KMeasuredCcAt64ThreadsPinsCoreOrderFanOut) {
  SystemConfig cfg;
  cfg.threads = 64;
  System sys(cfg);
  for (const MeasuredCcGolden& g : kMeasuredCcGoldens) {
    const auto w = workload::make_workload(g.workload, 64);
    const RunReport r = sys.run(
        w, {.arch = MemArch::kCc, .contention = ContentionMode::kMeasured});
    ASSERT_TRUE(r.noc.has_value()) << g.workload;
    EXPECT_DOUBLE_EQ(r.cost_per_access, g.cost_per_access) << g.workload;
    EXPECT_EQ(r.noc->measured_total_latency, g.measured_total_latency)
        << g.workload;
    EXPECT_EQ(r.noc->calibration_cycles, g.calibration_cycles)
        << g.workload;
  }
}

}  // namespace
}  // namespace em2
