// Shard-partitioned predictor state under relaxed sync: stateful EM2-RA
// decision policies (history, cost-estimate) now run with skew > 0 via
// the fork/merge contract — per-thread history rides with its thread
// across shard crossings, cost-estimate samples fold into one EWMA at
// every barrier in shard-index order.  The observable contract tested
// here: for a fixed (shards, skew) the relaxed run is DETERMINISTIC
// across repeats and across any helper-thread budget, still computes the
// right answers, and passes the sequential-consistency witness.  (Entry
// validation — which specs shard at all — lives in
// test_parallel_exec.cpp's RunSpecSharding suite.)
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/system.hpp"
#include "sim/exec_system.hpp"
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

struct ShardedSpec {
  std::string policy = "history:2:4";
  std::uint32_t shards = 4;
  Cycle skew = 200;
  std::int32_t threads = 16;
  std::int32_t blocks = 12;
};

/// Runs the gather workload relaxed-sharded on EM2-RA with the given
/// policy; returns the report plus the computed sums (read via peek).
ExecReport run_sharded(const ShardedSpec& spec,
                       std::vector<std::uint32_t>* sums = nullptr) {
  const Mesh mesh(8, 8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(mesh.num_cores());
  ExecParams params;
  params.arch = MemArch::kEm2Ra;
  params.ra_policy = spec.policy;
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

TEST(ShardedPolicies, StatefulRunsComputeCorrectSumsAndStayConsistent) {
  for (const char* policy : {"history:2:4", "cost-estimate"}) {
    ShardedSpec spec;
    spec.policy = policy;
    std::vector<std::uint32_t> sums;
    const ExecReport r = run_sharded(spec, &sums);
    EXPECT_TRUE(r.consistent) << policy;
    EXPECT_FALSE(r.timed_out) << policy;
    for (std::int32_t t = 0; t < spec.threads; ++t) {
      std::uint32_t want = 0;
      for (std::int32_t i = 0; i < spec.blocks; ++i) {
        want += static_cast<std::uint32_t>(3 * i + t);
      }
      EXPECT_EQ(sums[static_cast<std::size_t>(t)], want)
          << policy << " thread " << t;
    }
  }
}

TEST(ShardedPolicies, DeterministicAcrossRepeatsPerShardCount) {
  // The fork/merge contract must make the relaxed schedule a pure
  // function of (shards, skew) even when the policy carries predictor
  // state: history state crosses shards with its thread, cost-estimate
  // folds barrier-locally in shard-index order — no wall-clock anywhere.
  for (const char* policy :
       {"history:2:4", "cost-estimate", "distance:4"}) {
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      ShardedSpec spec;
      spec.policy = policy;
      spec.shards = shards;
      const std::string what =
          std::string(policy) + " shards=" + std::to_string(shards);
      const ExecReport first = run_sharded(spec);
      expect_identical(first, run_sharded(spec), what + " repeat");
    }
  }
}

TEST(ShardedPolicies, DeterministicAcrossThreadBudgets) {
  // Leases cap execution width, never semantics: starving the shard
  // workers down to one helper (fully serialized) or three (fewer than
  // shards) must reproduce the wide run bit for bit — predictor state
  // included.
  for (const char* policy : {"history:2:4", "cost-estimate"}) {
    ShardedSpec spec;
    spec.policy = policy;
    ExecReport wide;
    {
      BudgetGuard guard(16);
      wide = run_sharded(spec);
    }
    {
      BudgetGuard guard(1);
      expect_identical(wide, run_sharded(spec),
                       std::string(policy) + " budget 1 vs 16");
    }
    {
      BudgetGuard guard(3);  // fewer helpers than shards
      expect_identical(wide, run_sharded(spec),
                       std::string(policy) + " budget 3 vs 16");
    }
  }
}

TEST(ShardedPolicies, SystemLevelShardedStatefulRunIsDeterministic) {
  // Through the public System API: validate() now admits stateful
  // standard policies under relaxed sync, and the full run (placement,
  // report assembly, SC witness) repeats identically.
  SystemConfig cfg;
  cfg.threads = 16;
  const System sys(cfg);
  const auto w = workload::make_workload("sharing-mix", 16);
  RunSpec spec;
  spec.arch = MemArch::kEm2Ra;
  spec.mode = RunMode::kExec;
  spec.policy = "history:2:4";
  spec.shards = 4;
  spec.skew = 128;
  const RunReport a = sys.run(w, spec);
  const RunReport b = sys.run(w, spec);
  ASSERT_TRUE(a.exec.has_value());
  ASSERT_TRUE(b.exec.has_value());
  EXPECT_TRUE(a.exec->consistent);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.remote_accesses, b.remote_accesses);
  EXPECT_EQ(a.network_cost, b.network_cost);
  EXPECT_EQ(a.exec->cycles, b.exec->cycles);
  EXPECT_EQ(a.exec->instructions, b.exec->instructions);
  EXPECT_EQ(a.exec->finish_cycle, b.exec->finish_cycle);
}

}  // namespace
}  // namespace em2
