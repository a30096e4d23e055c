// Cross-module integration tests: properties that must hold when the
// whole stack (workloads -> placement -> simulators -> model) is wired
// together, run across the entire workload registry.
#include <gtest/gtest.h>

#include <cstdio>

#include "api/system.hpp"
#include "em2/replication.hpp"
#include "optimal/policy_eval.hpp"
#include "trace/trace_io.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

class EveryWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr std::int32_t kThreads = 16;

  TraceSet traces() const {
    auto ts = workload::make_by_name(GetParam(), kThreads, 1, 1);
    EXPECT_TRUE(ts.has_value());
    return std::move(*ts);
  }
};

TEST_P(EveryWorkload, DpOptimalLowerBoundsEveryPolicy) {
  // The model's defining property, end to end: per-thread DP cost is a
  // lower bound for every policy evaluated under the same model.
  SystemConfig cfg;
  cfg.threads = kThreads;
  System sys(cfg);
  const TraceSet ts = traces();
  const auto placement = sys.make_placement_for(ts);
  for (const auto& thread : ts.threads()) {
    const auto homes = home_sequence(thread, ts, *placement);
    std::vector<MemOp> ops;
    thread.for_each([&](const Access& a) { ops.push_back(a.op); });
    const ModelTrace mt =
        make_model_trace(homes, ops, thread.native_core());
    const Cost opt = solve_optimal_migrate_ra(mt, sys.cost_model())
                         .total_cost;
    for (const auto& spec : standard_policy_specs()) {
      StandardPolicy policy =
          StandardPolicy::make(spec, sys.mesh(), sys.cost_model());
      const Cost got =
          evaluate_policy_model(mt, sys.cost_model(), policy).total_cost;
      ASSERT_GE(got, opt) << GetParam() << " thread " << thread.thread()
                          << " policy " << spec;
    }
  }
}

TEST_P(EveryWorkload, TraceRoundTripPreservesSimulation) {
  // Serialize -> parse -> rerun: the EM2S format must not perturb any
  // simulator-visible property.
  SystemConfig cfg;
  cfg.threads = kThreads;
  System sys(cfg);
  const TraceSet original = traces();
  const std::string path =
      testing::TempDir() + "end_to_end_" + GetParam() + ".em2s";
  ASSERT_TRUE(save_trace(path, original));
  const TraceSet loaded = load_trace(path);
  std::remove(path.c_str());

  const RunReport a = sys.run(original, {.arch = MemArch::kEm2});
  const RunReport b = sys.run(loaded, {.arch = MemArch::kEm2});
  EXPECT_EQ(a.network_cost, b.network_cost) << GetParam();
  EXPECT_EQ(a.migrations, b.migrations) << GetParam();
  EXPECT_EQ(a.run_lengths.nonnative_accesses,
            b.run_lengths.nonnative_accesses)
      << GetParam();
}

TEST_P(EveryWorkload, ArchitecturesAgreeOnAccessCounts) {
  SystemConfig cfg;
  cfg.threads = kThreads;
  System sys(cfg);
  const TraceSet ts = traces();
  const RunReport em2_run = sys.run(ts, {.arch = MemArch::kEm2});
  const RunReport ra_run =
      sys.run(ts, {.arch = MemArch::kEm2Ra, .policy = "distance:4"});
  const RunReport cc_run = sys.run(ts, {.arch = MemArch::kCc});
  EXPECT_EQ(em2_run.accesses, ts.total_accesses());
  EXPECT_EQ(ra_run.accesses, ts.total_accesses());
  EXPECT_EQ(cc_run.accesses, ts.total_accesses());
}

TEST_P(EveryWorkload, RunLengthConservation) {
  SystemConfig cfg;
  cfg.threads = kThreads;
  System sys(cfg);
  const TraceSet ts = traces();
  const RunLengthReport r = sys.analyze_run_lengths(ts);
  EXPECT_EQ(r.native_accesses + r.nonnative_accesses, r.total_accesses);
  EXPECT_EQ(r.total_accesses, ts.total_accesses());
  EXPECT_EQ(r.accesses_by_run_length.total(), r.nonnative_accesses);
}

TEST_P(EveryWorkload, ReplicationNeverHurts) {
  // Read-only replication can only remove migrations, never add cost.
  SystemConfig cfg;
  cfg.threads = kThreads;
  System sys(cfg);
  const TraceSet ts = traces();
  const auto placement = sys.make_placement_for(ts);
  const auto replicable = replicable_blocks(ts, 1);
  const Em2RunReport base =
      run_em2(ts, *placement, sys.mesh(), sys.cost_model(), cfg.em2);
  const Em2RunReport repl = run_em2_replicated(
      ts, *placement, sys.mesh(), sys.cost_model(), cfg.em2, replicable);
  EXPECT_LE(repl.total_thread_cost, base.total_thread_cost) << GetParam();
  EXPECT_LE(repl.counters.get("migrations"),
            base.counters.get("migrations"))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Registry, EveryWorkload,
    ::testing::ValuesIn(workload::workload_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(Integration, GuestContextCountNeverChangesAccessTotals) {
  // Evictions redistribute threads but must never lose accesses.
  const auto ts = workload::make_by_name("hotspot", 16, 1, 1);
  ASSERT_TRUE(ts);
  for (const std::int32_t guests : {1, 2, 8}) {
    SystemConfig cfg;
    cfg.threads = 16;
    cfg.em2.guest_contexts = guests;
    System sys(cfg);
    const RunReport s = sys.run(*ts, {.arch = MemArch::kEm2});
    EXPECT_EQ(s.accesses, ts->total_accesses()) << guests;
  }
}

TEST(Integration, CostModelMonotonicInContextSize) {
  // Across the whole ocean run: doubling the context size can only
  // increase total EM2 cost.
  const auto ts = workload::make_by_name("ocean", 16, 1, 1);
  ASSERT_TRUE(ts);
  SystemConfig small;
  small.threads = 16;
  small.cost.context_bits = 512;
  SystemConfig large = small;
  large.cost.context_bits = 2048;
  const RunReport s = System(small).run(*ts, {.arch = MemArch::kEm2});
  const RunReport l = System(large).run(*ts, {.arch = MemArch::kEm2});
  EXPECT_LE(s.network_cost, l.network_cost);
}

}  // namespace
}  // namespace em2
