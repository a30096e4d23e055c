// The host-parallel single-run engine (relaxed sync, skew > 0).  At
// skew = 0 every shard count runs the sequential engine; the
// arch x shard-count matrix in tests/sim/test_exec_equivalence.cpp pins
// that those reports stay identical.
//
//  - relaxed mode (skew > 0) is DETERMINISTIC for a fixed (shards, skew)
//    — identical reports across repeats and across any helper-thread
//    budget, because leases cap execution width, never semantics;
//  - relaxed runs still compute the right answers and pass the
//    sequential-consistency witness (a different valid interleaving, not
//    a different machine);
//  - RunSpec::shards / RunSpec::skew entry checks reject every
//    configuration whose relaxed result would be machine-dependent or
//    whose machinery cannot be partitioned, and ExecSystem::run asserts
//    the same shard-count rule for direct users;
//  - nested parallelism (a sweep of sharded runs) stays within the
//    shared process thread budget instead of multiplying widths.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "sim/exec_system.hpp"
#include "sim/sweep.hpp"
#include "util/thread_budget.hpp"
#include "workload/registry.hpp"

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

struct RelaxedSpec {
  MemArch arch = MemArch::kEm2;
  std::uint32_t shards = 4;
  Cycle skew = 200;
  std::int32_t mesh_w = 8;
  std::int32_t mesh_h = 8;
  std::int32_t threads = 16;
  std::int32_t blocks = 12;
};

/// Runs the gather workload relaxed-sharded and returns the report plus
/// the computed sums (read back through peek).
ExecReport run_relaxed(const RelaxedSpec& spec,
                       std::vector<std::uint32_t>* sums = nullptr) {
  const Mesh mesh(spec.mesh_w, spec.mesh_h);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(mesh.num_cores());
  ExecParams params;
  params.arch = spec.arch;
  params.shards = spec.shards;
  params.skew = spec.skew;
  ExecSystem sys(mesh, cost, params, placement);
  for (std::int32_t t = 0; t < spec.threads; ++t) {
    const Addr base = 0x10000 + static_cast<Addr>(t) * 0x4000;
    for (std::int32_t i = 0; i < spec.blocks; ++i) {
      sys.poke(base + static_cast<Addr>(i) * 64,
               static_cast<std::uint32_t>(3 * i + t));
    }
    sys.add_thread(sum_program(base, spec.blocks,
                               0xF0000 + static_cast<Addr>(t) * 64),
                   static_cast<CoreId>((t * 5) % mesh.num_cores()));
  }
  const ExecReport r = sys.run(2'000'000);
  if (sums != nullptr) {
    sums->clear();
    for (std::int32_t t = 0; t < spec.threads; ++t) {
      sums->push_back(sys.peek(0xF0000 + static_cast<Addr>(t) * 64));
    }
  }
  return r;
}

void expect_identical(const ExecReport& a, const ExecReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.consistent, b.consistent) << what;
  EXPECT_EQ(a.timed_out, b.timed_out) << what;
  EXPECT_EQ(a.finish_cycle, b.finish_cycle) << what;
  EXPECT_EQ(a.violations.size(), b.violations.size()) << what;
  EXPECT_EQ(a.counters.all(), b.counters.all()) << what;
}

/// Restores the ambient budget even when an assertion bails out early.
struct BudgetGuard {
  explicit BudgetGuard(std::size_t total) {
    set_thread_budget_for_testing(total);
  }
  ~BudgetGuard() { set_thread_budget_for_testing(0); }
};

TEST(RelaxedExec, ComputesCorrectSumsAndStaysConsistent) {
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra}) {
    RelaxedSpec spec;
    spec.arch = arch;
    std::vector<std::uint32_t> sums;
    const ExecReport r = run_relaxed(spec, &sums);
    EXPECT_TRUE(r.consistent) << to_string(arch);
    EXPECT_FALSE(r.timed_out) << to_string(arch);
    EXPECT_GT(r.cycles, 0u) << to_string(arch);
    for (std::int32_t t = 0; t < spec.threads; ++t) {
      std::uint32_t expected = 0;
      for (std::int32_t i = 0; i < spec.blocks; ++i) {
        expected += static_cast<std::uint32_t>(3 * i + t);
      }
      EXPECT_EQ(sums[static_cast<std::size_t>(t)], expected)
          << to_string(arch) << " thread " << t;
    }
  }
}

TEST(RelaxedExec, DeterministicAcrossRepeats) {
  for (const MemArch arch : {MemArch::kEm2, MemArch::kEm2Ra}) {
    RelaxedSpec spec;
    spec.arch = arch;
    const ExecReport first = run_relaxed(spec);
    for (int rep = 0; rep < 2; ++rep) {
      expect_identical(first, run_relaxed(spec),
                       std::string(to_string(arch)) + " repeat " +
                           std::to_string(rep));
    }
  }
}

TEST(RelaxedExec, DeterministicAcrossThreadBudgets) {
  // The quantum interleaving is a function of (shards, skew) alone: a
  // run granted zero helpers (budget 1: pure coordinator) must report
  // identically to one granted a full complement.
  RelaxedSpec spec;
  ExecReport wide;
  {
    BudgetGuard guard(16);
    wide = run_relaxed(spec);
  }
  {
    BudgetGuard guard(1);
    expect_identical(wide, run_relaxed(spec), "budget 1 vs 16");
  }
  {
    BudgetGuard guard(3);  // fewer helpers than shards
    expect_identical(wide, run_relaxed(spec), "budget 3 vs 16");
  }
}

TEST(RelaxedExec, SkewValuesChangeInterleavingNotResults) {
  // Different quanta are different (valid) interleavings: results and
  // the SC witness must hold at every skew, while cycle counts may move.
  RelaxedSpec spec;
  for (const Cycle skew : {1u, 64u, 5000u}) {
    spec.skew = skew;
    std::vector<std::uint32_t> sums;
    const ExecReport r = run_relaxed(spec, &sums);
    EXPECT_TRUE(r.consistent) << "skew " << skew;
    EXPECT_FALSE(r.timed_out) << "skew " << skew;
    std::uint32_t expected0 = 0;
    for (std::int32_t i = 0; i < spec.blocks; ++i) {
      expected0 += static_cast<std::uint32_t>(3 * i);
    }
    EXPECT_EQ(sums[0], expected0) << "skew " << skew;
  }
}

TEST(RelaxedExec, ShardCountsNeedNotDivideTheMeshEvenly) {
  // 64 cores over 3 or 5 shards: remainder cores land in the leading
  // shards; determinism and results must be unaffected.
  for (const std::uint32_t shards : {3u, 5u}) {
    RelaxedSpec spec;
    spec.shards = shards;
    std::vector<std::uint32_t> sums;
    const ExecReport r = run_relaxed(spec, &sums);
    EXPECT_TRUE(r.consistent) << shards;
    EXPECT_FALSE(r.timed_out) << shards;
    expect_identical(r, run_relaxed(spec),
                     "repeat shards=" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------
// RunSpec entry checks (api/system validate()).

TEST(RunSpecSharding, RejectsMachineDependentOrUnpartitionableSpecs) {
  System sys(SystemConfig{.threads = 16});
  const auto w = workload::make_workload("sharing-mix", 16);
  const auto rejects = [&](const RunSpec& spec) {
    EXPECT_THROW((void)sys.run(w, spec), std::invalid_argument);
  };
  // Sharding is exec-mode, event-driven only.
  rejects({.mode = RunMode::kTrace, .shards = 2});
  rejects({.mode = RunMode::kExec,
           .scheduler = SchedulerKind::kScan,
           .shards = 2});
  // Relaxed sync needs an EXPLICIT shard count > 1 (auto = 0 and the
  // sequential 1 would both make the result depend on the host).
  rejects({.mode = RunMode::kExec, .shards = 1, .skew = 100});
  rejects({.mode = RunMode::kExec, .shards = 0, .skew = 100});
  // No CC partition, no faults, no contention correction, and no custom
  // wrapper around a stateful scheme under relaxed sync (opaque predictor
  // state cannot be forked or merged; every STANDARD scheme — history and
  // cost-estimate included — is shardable now, see the accepts test).
  rejects({.arch = MemArch::kCc,
           .mode = RunMode::kExec,
           .shards = 2,
           .skew = 100});
  rejects({.mode = RunMode::kExec,
           .faults = fault_spec_from_string("drop=0.1"),
           .shards = 2,
           .skew = 100});
  rejects({.mode = RunMode::kExec,
           .contention = ContentionMode::kEstimated,
           .shards = 2,
           .skew = 100});
  rejects({.arch = MemArch::kEm2Ra,
           .mode = RunMode::kExec,
           .policy = "custom:history",
           .shards = 2,
           .skew = 100});
  rejects({.arch = MemArch::kEm2Ra,
           .mode = RunMode::kExec,
           .policy = "custom:cost-estimate",
           .shards = 2,
           .skew = 100});
}

TEST(RunSpecSharding, AcceptsShardedExactAndShardableRelaxedRuns) {
  System sys(SystemConfig{.threads = 16});
  const auto w = workload::make_workload("sharing-mix", 16);
  for (const RunSpec& spec :
       {RunSpec{.mode = RunMode::kExec, .shards = 4},
        RunSpec{.mode = RunMode::kExec, .shards = 0},  // auto
        RunSpec{.mode = RunMode::kExec, .shards = 4, .skew = 128},
        RunSpec{.arch = MemArch::kEm2Ra,
                .mode = RunMode::kExec,
                .policy = "distance:4",
                .shards = 4,
                .skew = 128},
        // Stateful standard schemes shard under the fork/merge contract.
        RunSpec{.arch = MemArch::kEm2Ra,
                .mode = RunMode::kExec,
                .policy = "history:2:4",
                .shards = 4,
                .skew = 128},
        RunSpec{.arch = MemArch::kEm2Ra,
                .mode = RunMode::kExec,
                .policy = "cost-estimate",
                .shards = 2,
                .skew = 64},
        RunSpec{.arch = MemArch::kEm2Ra,
                .mode = RunMode::kExec,
                .policy = "custom:always-remote",
                .shards = 2,
                .skew = 64}}) {
    const RunReport r = sys.run(w, spec);
    ASSERT_TRUE(r.exec.has_value());
    EXPECT_TRUE(r.exec->consistent);
  }
}

TEST(RunSpecSharding, ShardedExactRunReportsIdenticallyToSequential) {
  // The System-level restatement of the equivalence matrix (and the CI
  // smoke's in-suite twin): shards = 4 at skew = 0 must reproduce the
  // sequential report field for field, arch label included.
  System sys(SystemConfig{.threads = 16});
  const auto w = workload::make_workload("sharing-mix", 16);
  for (const MemArch arch :
       {MemArch::kEm2, MemArch::kEm2Ra, MemArch::kCc}) {
    const RunReport seq =
        sys.run(w, {.arch = arch, .mode = RunMode::kExec, .shards = 1});
    const RunReport par =
        sys.run(w, {.arch = arch, .mode = RunMode::kExec, .shards = 4});
    ASSERT_TRUE(seq.exec.has_value());
    ASSERT_TRUE(par.exec.has_value());
    EXPECT_EQ(seq.arch_label, par.arch_label);
    EXPECT_EQ(seq.accesses, par.accesses) << to_string(arch);
    EXPECT_EQ(seq.migrations, par.migrations) << to_string(arch);
    EXPECT_EQ(seq.evictions, par.evictions) << to_string(arch);
    EXPECT_EQ(seq.network_cost, par.network_cost) << to_string(arch);
    EXPECT_EQ(seq.traffic_bits, par.traffic_bits) << to_string(arch);
    EXPECT_EQ(seq.exec->cycles, par.exec->cycles) << to_string(arch);
    EXPECT_EQ(seq.exec->instructions, par.exec->instructions)
        << to_string(arch);
    EXPECT_EQ(seq.exec->finish_cycle, par.exec->finish_cycle)
        << to_string(arch);
  }
}

TEST(RelaxedExecDeathTest, SkewWithoutAnExplicitShardCountDies) {
  // Direct ExecSystem users get System::validate's rule: skew > 0 needs
  // an explicit shards > 1, never a silently ignored skew (shards = 1)
  // or a host-dependent shard count (shards = 0).
  for (const std::uint32_t shards : {1u, 0u}) {
    RelaxedSpec spec;
    spec.shards = shards;
    spec.skew = 100;
    EXPECT_DEATH((void)run_relaxed(spec), "explicit shard count")
        << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------
// Shared thread budget (the oversubscription bugfix).

TEST(ThreadBudget, ShardAutoCountResolvesToTheBudget) {
  BudgetGuard guard(3);
  RelaxedSpec spec;
  spec.shards = 4;
  const ExecReport wide = run_relaxed(spec);
  EXPECT_LE(thread_budget_peak(), 3u);
  // Same shard count, tighter budget: identical simulation.
  set_thread_budget_for_testing(2);
  expect_identical(wide, run_relaxed(spec), "budget 2");
  EXPECT_LE(thread_budget_peak(), 2u);
}

TEST(ThreadBudget, SweepOfShardedRunsStaysWithinTheBudget) {
  // The failure mode this PR fixes: a 4-point sweep of 4-shard runs used
  // to claim workers x shards threads.  Under a budget of 4 the layers
  // must now share — the peak lease count can never exceed the budget.
  constexpr std::size_t kBudget = 4;
  BudgetGuard guard(kBudget);
  sweep::Options opts;  // num_threads = 0: resolve from the budget
  const auto reports = sweep::run(
      4,
      [&](std::size_t i) {
        RelaxedSpec spec;
        spec.skew = 100 + static_cast<Cycle>(i);
        return run_relaxed(spec);
      },
      opts);
  EXPECT_LE(thread_budget_peak(), kBudget);
  for (const ExecReport& r : reports) {
    EXPECT_TRUE(r.consistent);
    EXPECT_FALSE(r.timed_out);
  }
}

TEST(ThreadBudget, ExactModeShardedRunsShareTheBudgetToo) {
  constexpr std::size_t kBudget = 4;
  BudgetGuard guard(kBudget);
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(mesh.num_cores());
  const auto reports = sweep::run(4, [&](std::size_t i) {
    ExecParams params;
    params.shards = 4;  // skew = 0: the sequential engine
    ExecSystem sys(mesh, cost, params, placement);
    for (std::int32_t t = 0; t < 4; ++t) {
      const Addr base = 0x10000 + static_cast<Addr>(t) * 0x4000;
      for (std::int32_t b = 0; b < 8; ++b) {
        sys.poke(base + static_cast<Addr>(b) * 64,
                 static_cast<std::uint32_t>(b + static_cast<std::int32_t>(i)));
      }
      sys.add_thread(sum_program(base, 8, 0xF000 + static_cast<Addr>(t) * 64),
                     static_cast<CoreId>((t * 5) % mesh.num_cores()));
    }
    return sys.run(1'000'000);
  });
  EXPECT_LE(thread_budget_peak(), kBudget);
  for (const ExecReport& r : reports) {
    EXPECT_TRUE(r.consistent);
  }
}

}  // namespace
}  // namespace em2
