// Sealed-dispatch equivalence: the statically-specialized policy path and
// the retained virtual path (the kCustom escape hatch, spec
// "custom:<spec>") must produce bit-identical RunReports for every
// standard policy x {trace, exec} on EM2-RA.  This is the contract that
// lets the hot loops devirtualize at all: the dispatch mechanism must be
// unobservable in the results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/system.hpp"
#include "em2ra/policy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

void expect_reports_equal(const RunReport& a, const RunReport& b,
                          const std::string& label) {
  EXPECT_EQ(a.arch_label, b.arch_label) << label;
  EXPECT_EQ(a.workload, b.workload) << label;
  EXPECT_EQ(a.placement, b.placement) << label;
  EXPECT_EQ(a.accesses, b.accesses) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.evictions, b.evictions) << label;
  EXPECT_EQ(a.remote_accesses, b.remote_accesses) << label;
  EXPECT_EQ(a.replicated_reads, b.replicated_reads) << label;
  EXPECT_EQ(a.network_cost, b.network_cost) << label;
  EXPECT_EQ(a.traffic_bits, b.traffic_bits) << label;
  EXPECT_EQ(a.messages, b.messages) << label;
  // Identical integer inputs through identical arithmetic: the doubles
  // must match bit for bit, not within a tolerance.
  EXPECT_EQ(a.cost_per_access, b.cost_per_access) << label;
  EXPECT_EQ(a.run_lengths.total_accesses, b.run_lengths.total_accesses)
      << label;
  EXPECT_EQ(a.run_lengths.nonnative_runs, b.run_lengths.nonnative_runs)
      << label;
  ASSERT_EQ(a.exec.has_value(), b.exec.has_value()) << label;
  if (a.exec) {
    EXPECT_EQ(a.exec->cycles, b.exec->cycles) << label;
    EXPECT_EQ(a.exec->instructions, b.exec->instructions) << label;
    EXPECT_EQ(a.exec->consistent, b.exec->consistent) << label;
    EXPECT_EQ(a.exec->timed_out, b.exec->timed_out) << label;
    EXPECT_EQ(a.exec->finish_cycle, b.exec->finish_cycle) << label;
  }
}

/// Every standard scheme, plus a capacity-bounded history variant so the
/// flat predictor-file geometry is covered by the matrix too.
std::vector<std::string> matrix_specs() {
  auto specs = standard_policy_specs();
  specs.push_back("history:2:4");
  specs.push_back("distance:2");
  return specs;
}

TEST(DispatchEquivalence, StaticAndVirtualPathsAreBitIdentical) {
  SystemConfig cfg;
  cfg.threads = 16;
  const System sys(cfg);
  for (const char* workload : {"ocean", "sharing-mix"}) {
    const auto w = workload::make_workload(workload, 16);
    for (const std::string& spec : matrix_specs()) {
      for (const RunMode mode : {RunMode::kTrace, RunMode::kExec}) {
        RunSpec stat;
        stat.arch = MemArch::kEm2Ra;
        stat.mode = mode;
        stat.policy = spec;
        RunSpec virt = stat;
        virt.policy = "custom:" + spec;
        const RunReport a = sys.run(w, stat);
        const RunReport b = sys.run(w, virt);
        expect_reports_equal(
            a, b,
            std::string(workload) + " / " + spec + " / " +
                to_string(mode));
      }
    }
  }
}

TEST(DispatchEquivalence, ShardedExactExecMatchesAcrossDispatch) {
  // shards = 4 column: a shard count selects no engine, so the sequential
  // engine must preserve dispatch-invariance there too (a
  // dispatch-dependent result would surface here as a diverging report).
  // Identity to shards = 1 itself is covered by RunSpecSharding.
  SystemConfig cfg;
  cfg.threads = 16;
  const System sys(cfg);
  const auto w = workload::make_workload("sharing-mix", 16);
  for (const std::string& spec : matrix_specs()) {
    RunSpec stat;
    stat.arch = MemArch::kEm2Ra;
    stat.mode = RunMode::kExec;
    stat.policy = spec;
    stat.shards = 4;
    RunSpec virt = stat;
    virt.policy = "custom:" + spec;
    const RunReport a = sys.run(w, stat);
    const RunReport b = sys.run(w, virt);
    expect_reports_equal(a, b, "shards=4 / " + spec);
  }
}

TEST(DispatchEquivalence, TraceModeWithContentionCorrectionMatchesToo) {
  // The calibration pass drives the same specialized trace loop; the
  // corrected rerun must be dispatch-invariant as well (including the
  // NocUtilization section the replay fills in).
  SystemConfig cfg;
  cfg.threads = 16;
  const System sys(cfg);
  const auto w = workload::make_workload("sharing-mix", 16);
  RunSpec stat;
  stat.arch = MemArch::kEm2Ra;
  stat.policy = "history";
  stat.contention = ContentionMode::kMeasured;
  RunSpec virt = stat;
  virt.policy = "custom:history";
  const RunReport a = sys.run(w, stat);
  const RunReport b = sys.run(w, virt);
  expect_reports_equal(a, b, "contention-corrected");
  ASSERT_TRUE(a.noc && b.noc);
  EXPECT_EQ(a.noc->calibration_cycles, b.noc->calibration_cycles);
  EXPECT_EQ(a.noc->measured_total_latency, b.noc->measured_total_latency);
  EXPECT_EQ(a.noc->predicted_total_latency, b.noc->predicted_total_latency);
}

TEST(DispatchEquivalence, DecisionStreamsMatchPerPolicy) {
  // Sharper than report equality: drive the same randomized
  // decide/observe stream through the sealed object and the virtual
  // factory's object and demand identical decisions at every step.
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  for (const std::string& spec : matrix_specs()) {
    StandardPolicy sealed_policy = StandardPolicy::make(spec, mesh, cost);
    auto virtual_policy = make_policy(spec, mesh, cost);
    ASSERT_NE(virtual_policy, nullptr) << spec;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      const auto t = static_cast<ThreadId>(rng.next_below(4));
      const auto home = static_cast<CoreId>(rng.next_below(16));
      const auto current = static_cast<CoreId>(rng.next_below(16));
      DecisionQuery q;
      q.thread = t;
      q.current = current;
      q.home = home;
      q.native = static_cast<CoreId>(t);
      q.op = rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead;
      if (current != home) {
        EXPECT_EQ(sealed_policy.decide(q), virtual_policy->decide(q))
            << spec << " step " << i;
      }
      sealed_policy.observe(t, home, static_cast<CoreId>(t));
      virtual_policy->observe(t, home, static_cast<CoreId>(t));
    }
  }
}

TEST(DispatchEquivalence, CustomEscapeHatchRejectsUnknownSpecs) {
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  EXPECT_THROW(StandardPolicy::make("nonsense", mesh, cost),
               UnknownNameError);
  EXPECT_THROW(StandardPolicy::make("custom:nonsense", mesh, cost),
               UnknownNameError);
  EXPECT_THROW(StandardPolicy::make("custom:", mesh, cost),
               UnknownNameError);
  EXPECT_THROW(StandardPolicy::make("custom:history:0", mesh, cost),
               UnknownNameError);
  // A nested "custom:custom:..." is not a standard spec either.
  EXPECT_THROW(StandardPolicy::make("custom:custom:history", mesh, cost),
               UnknownNameError);
}

TEST(DispatchEquivalence, SystemValidatesCustomSpecsAtEntry) {
  SystemConfig cfg;
  cfg.threads = 8;
  const System sys(cfg);
  const auto w = workload::make_workload("ocean", 8);
  EXPECT_THROW(
      sys.run(w, RunSpec{.arch = MemArch::kEm2Ra, .policy = "custom:nope"}),
      UnknownNameError);
  // Exec mode funnels through the same entry validation.
  EXPECT_THROW(sys.run(w, RunSpec{.arch = MemArch::kEm2Ra,
                                  .mode = RunMode::kExec,
                                  .policy = "custom:"}),
               UnknownNameError);
  // ...and a valid custom spec runs.
  const RunReport r = sys.run(
      w, RunSpec{.arch = MemArch::kEm2Ra, .policy = "custom:distance:4"});
  EXPECT_EQ(r.arch_label, "em2-ra(distance:4)");
}

TEST(DispatchEquivalence, NullCustomPolicyDies) {
  EXPECT_DEATH(StandardPolicy::custom(nullptr), "non-null");
}

TEST(DispatchEquivalence, KindReflectsSpec) {
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  EXPECT_EQ(StandardPolicy::make("always-migrate", mesh, cost).kind(),
            StandardPolicyKind::kAlwaysMigrate);
  EXPECT_EQ(StandardPolicy::make("always-remote", mesh, cost).kind(),
            StandardPolicyKind::kAlwaysRemote);
  EXPECT_EQ(StandardPolicy::make("distance:3", mesh, cost).kind(),
            StandardPolicyKind::kDistance);
  EXPECT_EQ(StandardPolicy::make("history:2:4", mesh, cost).kind(),
            StandardPolicyKind::kHistory);
  EXPECT_EQ(StandardPolicy::make("cost-estimate", mesh, cost).kind(),
            StandardPolicyKind::kCostEstimate);
  EXPECT_EQ(StandardPolicy::make("custom:history", mesh, cost).kind(),
            StandardPolicyKind::kCustom);
  // Names are dispatch-invariant (reports depend on this).
  EXPECT_EQ(StandardPolicy::make("custom:history", mesh, cost).name(),
            StandardPolicy::make("history", mesh, cost).name());
}

}  // namespace
}  // namespace em2
