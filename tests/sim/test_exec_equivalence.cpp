// The event-driven scheduler is an optimization, not a semantic change:
// on every configuration it must produce an ExecReport bit-identical to
// the O(cores x threads) scan scheduler it replaces — same cycle count,
// same instruction interleaving (hence same counters), same per-thread
// finish times.  This file is the equivalence matrix the ISSUE demands,
// plus a 1024-core smoke run that only the event-driven scheduler could
// finish in test-suite time.
//
// The matrix is two-dimensional: arch x ExecParams::shards.  The shard
// count selects no engine (every value runs the one sequential engine),
// so the shards > 1 columns pin that a shard count alone never changes a
// report field.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/exec_system.hpp"
#include "sim/faults.hpp"

namespace em2 {
namespace {

/// Sums `n` words at `base` (stride 64B) into memory at `result`.
RProgram sum_program(Addr base, int n, Addr result) {
  RAsm a;
  a.addi(1, 0, 0);
  a.addi(2, 0, static_cast<std::int32_t>(base));
  a.addi(3, 0, n);
  const std::int32_t loop = a.here();
  a.lw(4, 2, 0).add(1, 1, 4).addi(2, 2, 64).addi(3, 3, -1);
  const std::int32_t br = a.here();
  a.bne(3, 0, 0);
  a.patch_imm(br, loop - (br + 1));
  a.addi(5, 0, static_cast<std::int32_t>(result));
  a.sw(1, 5, 0);
  a.halt();
  return a.build();
}

/// Every field of the report the run can influence must match exactly.
void expect_identical(const ExecReport& scan, const ExecReport& event,
                      const char* what) {
  EXPECT_EQ(scan.cycles, event.cycles) << what;
  EXPECT_EQ(scan.instructions, event.instructions) << what;
  EXPECT_EQ(scan.consistent, event.consistent) << what;
  EXPECT_EQ(scan.timed_out, event.timed_out) << what;
  EXPECT_EQ(scan.finish_cycle, event.finish_cycle) << what;
  EXPECT_EQ(scan.violations.size(), event.violations.size()) << what;
  EXPECT_EQ(scan.counters.all(), event.counters.all()) << what;
}

struct WorkloadSpec {
  std::int32_t mesh_w = 4;
  std::int32_t mesh_h = 4;
  std::int32_t threads = 4;
  std::int32_t blocks_per_thread = 8;
  std::int32_t guest_contexts = 2;
  Cycle max_cycles = 1'000'000;
  std::uint32_t shards = 1;
  std::string fault_spec;  // empty = no injector
};

/// Builds the same multi-thread gather workload twice and runs it under
/// each scheduler; threads read striped remote blocks (migrations under
/// EM2/EM2-RA, directory traffic under CC) and contend for guest slots.
ExecReport run_workload(MemArch arch, SchedulerKind sched,
                       const WorkloadSpec& spec) {
  const Mesh mesh(spec.mesh_w, spec.mesh_h);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(mesh.num_cores());
  std::optional<FaultInjector> faults;
  if (!spec.fault_spec.empty()) {
    faults.emplace(fault_spec_from_string(spec.fault_spec),
                   mesh.num_cores());
  }
  ExecParams params;
  params.arch = arch;
  params.scheduler = sched;
  params.em2.guest_contexts = spec.guest_contexts;
  params.shards = spec.shards;
  params.faults = faults ? &*faults : nullptr;
  ExecSystem sys(mesh, cost, params, placement);
  for (std::int32_t t = 0; t < spec.threads; ++t) {
    const Addr base = 0x10000 + static_cast<Addr>(t) * 0x4000;
    for (std::int32_t i = 0; i < spec.blocks_per_thread; ++i) {
      sys.poke(base + static_cast<Addr>(i) * 64,
               static_cast<std::uint32_t>(3 * i + t));
    }
    sys.add_thread(
        sum_program(base, spec.blocks_per_thread,
                    0xF000 + static_cast<Addr>(t) * 64),
        static_cast<CoreId>((t * 5) % mesh.num_cores()));
  }
  return sys.run(spec.max_cycles);
}

/// (arch, host shard count): every cell must match the scan reference.
class ExecEquivalence
    : public ::testing::TestWithParam<std::tuple<MemArch, std::uint32_t>> {
 protected:
  MemArch arch() const { return std::get<0>(GetParam()); }
  std::uint32_t shards() const { return std::get<1>(GetParam()); }
  std::string label() const {
    return std::string(to_string(arch())) + " shards=" +
           std::to_string(shards());
  }
};

TEST_P(ExecEquivalence, SmallMeshMultiThread) {
  WorkloadSpec spec;
  const ExecReport scan =
      run_workload(arch(), SchedulerKind::kScan, spec);
  spec.shards = shards();
  const ExecReport event =
      run_workload(arch(), SchedulerKind::kEventDriven, spec);
  EXPECT_TRUE(scan.consistent);
  expect_identical(scan, event, label().c_str());
}

TEST_P(ExecEquivalence, TinyMeshMoreThreadsThanCores) {
  WorkloadSpec spec;
  spec.mesh_w = 2;
  spec.mesh_h = 2;
  spec.threads = 7;  // oversubscribed: several threads share a native core
  spec.blocks_per_thread = 6;
  const ExecReport scan =
      run_workload(arch(), SchedulerKind::kScan, spec);
  spec.shards = shards();
  const ExecReport event =
      run_workload(arch(), SchedulerKind::kEventDriven, spec);
  EXPECT_TRUE(scan.consistent);
  expect_identical(scan, event, label().c_str());
}

TEST_P(ExecEquivalence, EvictionStormSingleGuestContext) {
  WorkloadSpec spec;
  spec.guest_contexts = 1;  // every concurrent migration evicts
  spec.threads = 6;
  spec.blocks_per_thread = 10;
  const ExecReport scan =
      run_workload(arch(), SchedulerKind::kScan, spec);
  spec.shards = shards();
  const ExecReport event =
      run_workload(arch(), SchedulerKind::kEventDriven, spec);
  EXPECT_TRUE(scan.consistent);
  expect_identical(scan, event, label().c_str());
}

TEST_P(ExecEquivalence, TimeoutReportsMatch) {
  WorkloadSpec spec;
  spec.blocks_per_thread = 64;
  spec.max_cycles = 137;  // cut the run off mid-flight
  const ExecReport scan =
      run_workload(arch(), SchedulerKind::kScan, spec);
  spec.shards = shards();
  const ExecReport event =
      run_workload(arch(), SchedulerKind::kEventDriven, spec);
  EXPECT_TRUE(scan.timed_out);
  expect_identical(scan, event, label().c_str());
}

TEST_P(ExecEquivalence, FaultScenariosMatchSequential) {
  // Drop / stall / kill each draw from the injector's stateless hash
  // streams in issue order, so the event scheduler must preserve the scan
  // scheduler's exact draw sequence — any reordering shows up as a
  // diverging fault count or finish time.
  if (arch() == MemArch::kCc) {
    GTEST_SKIP() << "fault injection is EM2/EM2-RA only (no CC fault model)";
  }
  for (const char* faults :
       {"drop=0.4,seed=11", "stall=0.3:40,seed=5", "kill=2@700"}) {
    WorkloadSpec spec;
    spec.threads = 6;
    spec.blocks_per_thread = 10;
    spec.fault_spec = faults;
    const ExecReport scan =
        run_workload(arch(), SchedulerKind::kScan, spec);
    spec.shards = shards();
    const ExecReport event =
        run_workload(arch(), SchedulerKind::kEventDriven, spec);
    expect_identical(scan, event, (label() + " " + faults).c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchByShards, ExecEquivalence,
    ::testing::Combine(::testing::Values(MemArch::kEm2, MemArch::kEm2Ra,
                                         MemArch::kCc),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& param_info) {
      const std::string arch =
          std::string(to_string(std::get<0>(param_info.param))) == "em2-ra"
              ? "em2ra"
              : to_string(std::get<0>(param_info.param));
      return arch + "_shards" + std::to_string(std::get<1>(param_info.param));
    });

// Idle-cycle skipping must not change the clock: a lone far-corner thread
// spends most cycles stalled on migrations, which the event scheduler
// jumps over in one heap pop each.
TEST(ExecEquivalence, LongStallsSkipToTheSameClock) {
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra}) {
    WorkloadSpec spec;
    spec.mesh_w = 8;
    spec.mesh_h = 8;
    spec.threads = 1;
    spec.blocks_per_thread = 16;
    const ExecReport scan = run_workload(arch, SchedulerKind::kScan, spec);
    const ExecReport event =
        run_workload(arch, SchedulerKind::kEventDriven, spec);
    EXPECT_TRUE(scan.consistent);
    expect_identical(scan, event, to_string(arch));
  }
}

// The point of the whole exercise: a 1024-core execution-driven run.  The
// scan scheduler would burn cores x threads probes per cycle here; the
// event-driven scheduler finishes this in test-suite time with room to
// spare.  (bench_exec_scaling measures the actual speedup.)
TEST(ExecScale, Smoke1024Cores) {
  const Mesh mesh(32, 32);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(mesh.num_cores());
  ExecParams params;
  params.arch = MemArch::kEm2;
  ExecSystem sys(mesh, cost, params, placement);
  constexpr std::int32_t kThreads = 64;
  constexpr std::int32_t kBlocks = 16;
  std::vector<std::uint32_t> expected(kThreads, 0);
  for (std::int32_t t = 0; t < kThreads; ++t) {
    const Addr base = 0x100000 + static_cast<Addr>(t) * 0x10000;
    for (std::int32_t i = 0; i < kBlocks; ++i) {
      sys.poke(base + static_cast<Addr>(i) * 64,
               static_cast<std::uint32_t>(i + t));
      expected[static_cast<std::size_t>(t)] +=
          static_cast<std::uint32_t>(i + t);
    }
    sys.add_thread(sum_program(base, kBlocks,
                               0xFF0000 + static_cast<Addr>(t) * 64),
                   static_cast<CoreId>((t * 17) % mesh.num_cores()));
  }
  const ExecReport r = sys.run(10'000'000);
  EXPECT_TRUE(r.consistent);
  EXPECT_FALSE(r.timed_out);
  EXPECT_GT(r.counters.get("migrations"), 0u);
  for (std::int32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sys.peek(0xFF0000 + static_cast<Addr>(t) * 64),
              expected[static_cast<std::size_t>(t)])
        << t;
  }
}

}  // namespace
}  // namespace em2
