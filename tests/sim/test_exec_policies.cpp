// Execution-driven runs across EM2-RA decision policies and eviction
// pressure: every configuration must stay sequentially consistent and
// compute identical program results.
#include <gtest/gtest.h>

#include "sim/exec_system.hpp"

namespace em2 {
namespace {

/// Gather-sum over blocks owned by many cores, then a flag write.
RProgram gather_program(Addr base, int n, Addr result) {
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

class ExecPolicy : public ::testing::TestWithParam<const char*> {};

TEST_P(ExecPolicy, ConsistentAndCorrect) {
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(16);
  ExecParams params;
  params.arch = MemArch::kEm2Ra;
  params.ra_policy = GetParam();
  ExecSystem sys(mesh, cost, params, placement);
  std::uint32_t expected = 0;
  for (int i = 0; i < 20; ++i) {
    sys.poke(0x5000 + static_cast<Addr>(i) * 64,
             static_cast<std::uint32_t>(7 * i + 1));
    expected += static_cast<std::uint32_t>(7 * i + 1);
  }
  sys.add_thread(gather_program(0x5000, 20, 0xA000), 3);
  const ExecReport r = sys.run(1'000'000);
  EXPECT_TRUE(r.consistent) << GetParam();
  EXPECT_EQ(sys.peek(0xA000), expected) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Policies, ExecPolicy,
                         ::testing::Values("always-migrate", "always-remote",
                                           "distance:4", "history",
                                           "history:2:4", "cost-estimate"));

TEST(ExecEviction, TightGuestContextsStayCorrect) {
  // Four threads hammer blocks homed at one core with a single guest
  // context: constant evictions, still correct and consistent.
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  // All data blocks homed at core 5.
  Placement placement(16);
  for (Addr b = 0; b < 4096; ++b) {
    placement.assign(b, 5);
  }
  ExecParams params;
  params.arch = MemArch::kEm2;
  params.em2.guest_contexts = 1;
  ExecSystem sys(mesh, cost, params, placement);
  std::uint32_t expected[4] = {};
  for (int t = 0; t < 4; ++t) {
    const Addr base = 0x10000 + static_cast<Addr>(t) * 0x1000;
    for (int i = 0; i < 8; ++i) {
      sys.poke(base + static_cast<Addr>(i) * 64,
               static_cast<std::uint32_t>(i + t));
      expected[t] += static_cast<std::uint32_t>(i + t);
    }
    sys.add_thread(gather_program(base, 8,
                                  0xB000 + static_cast<Addr>(t) * 64),
                   static_cast<CoreId>(t * 5));  // corners-ish
  }
  const ExecReport r = sys.run(5'000'000);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.counters.get("evictions"), 0u);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(sys.peek(0xB000 + static_cast<Addr>(t) * 64), expected[t])
        << t;
  }
}

TEST(ExecEviction, EvictedThreadIsRestalled) {
  // An eviction charges the victim its trip home: with contention the
  // victims' finish times must reflect it (later than uncontended).
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement(16);
  for (Addr b = 0; b < 4096; ++b) {
    placement.assign(b, 10);
  }
  auto run_threads = [&](int nthreads) {
    ExecParams params;
    params.arch = MemArch::kEm2;
    params.em2.guest_contexts = 1;
    ExecSystem sys(mesh, cost, params, placement);
    for (int t = 0; t < nthreads; ++t) {
      const Addr base = 0x20000 + static_cast<Addr>(t) * 0x1000;
      for (int i = 0; i < 6; ++i) {
        sys.poke(base + static_cast<Addr>(i) * 64, 1);
      }
      sys.add_thread(gather_program(base, 6,
                                    0xC000 + static_cast<Addr>(t) * 64),
                     static_cast<CoreId>(t));
    }
    return sys.run(5'000'000);
  };
  const ExecReport solo = run_threads(1);
  const ExecReport crowd = run_threads(6);
  EXPECT_TRUE(solo.consistent);
  EXPECT_TRUE(crowd.consistent);
  // The crowded run must take longer overall (evictions + serialization).
  EXPECT_GT(crowd.cycles, solo.cycles);
}

}  // namespace
}  // namespace em2
