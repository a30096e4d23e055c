#include "sim/exec_system.hpp"

#include <gtest/gtest.h>

namespace em2 {
namespace {

/// Sums `n` words at `base` (stride 64B) into memory at `result`.
RProgram sum_program(Addr base, int n, Addr result) {
  RAsm a;
  a.addi(1, 0, 0);                              // acc
  a.addi(2, 0, static_cast<std::int32_t>(base));  // ptr
  a.addi(3, 0, n);                              // counter
  const std::int32_t loop = a.here();
  a.lw(4, 2, 0);         // load *ptr
  a.add(1, 1, 4);        // acc += value
  a.addi(2, 2, 64);      // ptr += 64 (one block)
  a.addi(3, 3, -1);      // counter--
  const std::int32_t branch_at = a.here();
  a.bne(3, 0, 0);
  a.patch_imm(branch_at, loop - (branch_at + 1));
  a.addi(5, 0, static_cast<std::int32_t>(result));
  a.sw(1, 5, 0);
  a.halt();
  return a.build();
}

struct ExecFixture {
  Mesh mesh{4, 4};
  CostModel cost{mesh, CostModelParams{}};
  Placement placement = Placement::striped(16);
  ExecParams params{};
};

TEST(ExecSystem, Em2SumAcrossCoresIsCorrectAndConsistent) {
  ExecFixture f;
  f.params.arch = MemArch::kEm2;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  std::uint32_t expected = 0;
  for (int i = 0; i < 16; ++i) {
    sys.poke(0x1000 + static_cast<Addr>(i) * 64, static_cast<std::uint32_t>(i * 3));
    expected += static_cast<std::uint32_t>(i * 3);
  }
  sys.add_thread(sum_program(0x1000, 16, 0x9000), 0);
  const ExecReport r = sys.run(1'000'000);
  EXPECT_TRUE(r.consistent) << (r.violations.empty()
                                    ? "did not halt"
                                    : r.violations[0].what);
  EXPECT_EQ(sys.peek(0x9000), expected);
  EXPECT_GT(r.counters.get("migrations"), 0u);
}

TEST(ExecSystem, CachedHomesFollowThePlacementAcrossHomePages) {
  // Blocks are cached 16 to a page; 48 consecutive blocks with scattered
  // homes span several pages.  A single EM2 thread migrates exactly when
  // the next block's placement home differs from where it is, so the
  // migration count pins every cached home to the placement's answer.
  ExecFixture f;
  f.params.arch = MemArch::kEm2;
  Placement placement(16);
  const Addr base = 0x1000;  // block 64
  std::uint64_t expected_migrations = 0;
  CoreId at = 0;
  for (int i = 0; i <= 48; ++i) {  // i == 48: the result block
    const CoreId home = static_cast<CoreId>((i * 7 + i / 5) % 16);
    placement.assign((base >> 6) + static_cast<Addr>(i), home);
    expected_migrations += home != at ? 1 : 0;
    at = home;
  }
  ExecSystem sys(f.mesh, f.cost, f.params, placement);
  std::uint32_t expected = 0;
  for (int i = 0; i < 48; ++i) {
    sys.poke(base + static_cast<Addr>(i) * 64, static_cast<std::uint32_t>(i));
    expected += static_cast<std::uint32_t>(i);
  }
  sys.add_thread(sum_program(base, 48, base + 48 * 64), 0);
  const ExecReport r = sys.run(1'000'000);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(sys.peek(base + 48 * 64), expected);
  EXPECT_EQ(r.counters.get("migrations"), expected_migrations);
}

TEST(ExecSystem, AllThreeArchitecturesComputeTheSameResult) {
  std::uint32_t results[3];
  int idx = 0;
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    ExecFixture f;
    f.params.arch = arch;
    ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
    for (int i = 0; i < 12; ++i) {
      sys.poke(0x2000 + static_cast<Addr>(i) * 64,
               static_cast<std::uint32_t>(i * i));
    }
    sys.add_thread(sum_program(0x2000, 12, 0x9100), 1);
    const ExecReport r = sys.run(1'000'000);
    EXPECT_TRUE(r.consistent) << to_string(arch);
    results[idx++] = sys.peek(0x9100);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(ExecSystem, SharedCounterSequentialConsistency) {
  // Two threads increment disjoint halves then one sums; with the
  // round-robin engine and EM2 semantics the checker must stay clean.
  ExecFixture f;
  f.params.arch = MemArch::kEm2;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  // Thread A writes 5 to 0x3000; thread B writes 7 to 0x3040.
  sys.add_thread(RAsm()
                     .addi(1, 0, 5)
                     .addi(2, 0, 0x3000)
                     .sw(1, 2, 0)
                     .halt()
                     .build(),
                 2);
  sys.add_thread(RAsm()
                     .addi(1, 0, 7)
                     .addi(2, 0, 0x3040)
                     .sw(1, 2, 0)
                     .halt()
                     .build(),
                 3);
  const ExecReport r = sys.run(100'000);
  EXPECT_TRUE(r.consistent);
  EXPECT_EQ(sys.peek(0x3000), 5u);
  EXPECT_EQ(sys.peek(0x3040), 7u);
}

TEST(ExecSystem, Em2MigratesButCcDoesNot) {
  for (const MemArch arch : {MemArch::kEm2, MemArch::kCc}) {
    ExecFixture f;
    f.params.arch = arch;
    ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
    for (int i = 0; i < 8; ++i) {
      sys.poke(0x4000 + static_cast<Addr>(i) * 64, 1);
    }
    sys.add_thread(sum_program(0x4000, 8, 0x9200), 0);
    const ExecReport r = sys.run(1'000'000);
    EXPECT_TRUE(r.consistent);
    if (arch == MemArch::kEm2) {
      EXPECT_GT(r.counters.get("migrations"), 0u);
    } else {
      EXPECT_EQ(r.counters.get("migrations"), 0u);
      EXPECT_GT(r.counters.get("messages"), 0u);
    }
  }
}

TEST(ExecSystem, MemoryLatencyStallsShowUpInCycles) {
  // The same program on a far core vs the local core: remote data costs
  // more cycles under EM2 (migration latency on the critical path).
  ExecFixture near_f;
  near_f.params.arch = MemArch::kEm2;
  ExecSystem near_sys(near_f.mesh, near_f.cost, near_f.params,
                      near_f.placement);
  // Blocks 0,16,32,... are all homed at core 0 under striping (16 cores).
  near_sys.add_thread(sum_program(0, 4, 0x9300), 0);
  const ExecReport near_r = near_sys.run(1'000'000);

  ExecFixture far_f;
  far_f.params.arch = MemArch::kEm2;
  ExecSystem far_sys(far_f.mesh, far_f.cost, far_f.params, far_f.placement);
  far_sys.add_thread(sum_program(0, 4, 0x9300), 15);  // far corner thread
  const ExecReport far_r = far_sys.run(1'000'000);

  EXPECT_TRUE(near_r.consistent);
  EXPECT_TRUE(far_r.consistent);
  EXPECT_GT(far_r.cycles, near_r.cycles);
}

TEST(ExecSystem, FinishCyclesRecorded) {
  ExecFixture f;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  sys.add_thread(RAsm().nop().halt().build(), 0);
  sys.add_thread(RAsm().nop().nop().nop().nop().halt().build(), 1);
  const ExecReport r = sys.run(10'000);
  ASSERT_EQ(r.finish_cycle.size(), 2u);
  EXPECT_GT(r.finish_cycle[0], 0u);
  EXPECT_GE(r.finish_cycle[1], r.finish_cycle[0]);
}

TEST(ExecSystem, RunBudgetStopsInfiniteLoops) {
  ExecFixture f;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  sys.add_thread(RAsm().jmp(0).build(), 0);
  const ExecReport r = sys.run(1000);
  EXPECT_FALSE(r.consistent);  // never halted
  EXPECT_EQ(r.cycles, 1000u);
}

// Regression (ISSUE 2): hitting max_cycles used to be indistinguishable
// from a real consistency violation — both read as consistent == false.
// A timeout with clean memory semantics must now report timed_out == true
// and carry zero checker violations.
TEST(ExecSystem, TimeoutIsNotAConsistencyViolation) {
  ExecFixture f;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  sys.add_thread(RAsm().jmp(0).build(), 0);
  const ExecReport r = sys.run(1000);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.violations.empty());  // saturation, not broken memory
  EXPECT_FALSE(r.consistent);         // but the run did not complete
}

TEST(ExecSystem, CompletedRunIsNotTimedOut) {
  ExecFixture f;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  sys.add_thread(RAsm().nop().halt().build(), 0);
  const ExecReport r = sys.run(10'000);
  EXPECT_FALSE(r.timed_out);
  EXPECT_TRUE(r.consistent);
}

// Regression (ISSUE 2): run() used to reset report_ but not now_ / halted
// flags / machine counters, so a second call silently continued from the
// previous cycle count with stale state.  The contract is now single-shot:
// a second run() is a hard assertion failure.
TEST(ExecSystemDeathTest, SecondRunAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ExecFixture f;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  sys.add_thread(RAsm().nop().halt().build(), 0);
  const ExecReport r = sys.run(10'000);
  EXPECT_TRUE(r.consistent);
  EXPECT_DEATH(sys.run(10'000), "single-shot");
}

TEST(ExecSystemDeathTest, AddThreadAfterRunAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ExecFixture f;
  ExecSystem sys(f.mesh, f.cost, f.params, f.placement);
  sys.add_thread(RAsm().nop().halt().build(), 0);
  (void)sys.run(10'000);
  EXPECT_DEATH(sys.add_thread(RAsm().halt().build(), 0),
               "before run");
}

}  // namespace
}  // namespace em2
