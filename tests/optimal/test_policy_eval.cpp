#include "optimal/policy_eval.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"

namespace em2 {
namespace {

ModelTrace random_trace(std::int32_t cores, int length,
                        std::uint64_t seed) {
  Rng rng(seed);
  ModelTrace t;
  t.start = 0;
  for (int i = 0; i < length; ++i) {
    t.homes.push_back(static_cast<CoreId>(
        rng.next_below(static_cast<std::uint64_t>(cores))));
    t.ops.push_back(rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead);
  }
  return t;
}

// Both pole policies run in both forms: the sealed one takes
// evaluate_policy_model's single-pass shortcut, the "custom:" one the
// generic decide-apply loop, so each path is pinned to the hand sum.
TEST(PolicyEval, AlwaysMigrateMatchesHandComputation) {
  const Mesh mesh(2, 2);
  const CostModel m(mesh, CostModelParams{});
  ModelTrace t;
  t.start = 0;
  t.homes = {1, 1, 0};
  t.ops = {MemOp::kRead, MemOp::kRead, MemOp::kRead};
  for (const char* spec : {"always-migrate", "custom:always-migrate"}) {
    StandardPolicy policy = StandardPolicy::make(spec, mesh, m);
    const auto sol = evaluate_policy_model(t, m, policy);
    EXPECT_EQ(sol.total_cost, m.migration(0, 1) + m.migration(1, 0))
        << spec;
    EXPECT_EQ(sol.migrations, 2u) << spec;
    EXPECT_EQ(sol.remote_accesses, 0u) << spec;
    EXPECT_EQ(sol.actions[1], AccessAction::kLocal) << spec;
  }
}

TEST(PolicyEval, AlwaysRemoteMatchesHandComputation) {
  const Mesh mesh(2, 2);
  const CostModel m(mesh, CostModelParams{});
  ModelTrace t;
  t.start = 0;
  t.homes = {1, 3, 0};
  t.ops = {MemOp::kRead, MemOp::kWrite, MemOp::kRead};
  for (const char* spec : {"always-remote", "custom:always-remote"}) {
    StandardPolicy policy = StandardPolicy::make(spec, mesh, m);
    const auto sol = evaluate_policy_model(t, m, policy);
    EXPECT_EQ(sol.total_cost, m.remote_access(0, 1, MemOp::kRead) +
                                  m.remote_access(0, 3, MemOp::kWrite))
        << spec;
    EXPECT_EQ(sol.migrations, 0u) << spec;
    EXPECT_EQ(sol.remote_accesses, 2u) << spec;
    // never left core 0
    EXPECT_EQ(sol.actions[2], AccessAction::kLocal) << spec;
  }
}

// The model's defining property: no policy can beat the DP optimum.
class PolicyUpperBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyUpperBound, OptimalDominatesAllPolicies) {
  const Mesh mesh(4, 4);
  const CostModel m(mesh, CostModelParams{});
  const ModelTrace t = random_trace(16, 400, GetParam());
  const auto opt = solve_optimal_migrate_ra(t, m);
  for (const auto& spec : standard_policy_specs()) {
    StandardPolicy policy = StandardPolicy::make(spec, mesh, m);
    const auto got = evaluate_policy_model(t, m, policy);
    EXPECT_GE(got.total_cost, opt.total_cost) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyUpperBound,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(PolicyEval, LocationsConsistentWithActions) {
  const Mesh mesh(4, 4);
  const CostModel m(mesh, CostModelParams{});
  const ModelTrace t = random_trace(16, 200, 42);
  StandardPolicy policy = StandardPolicy::make("distance:3", mesh, m);
  const auto sol = evaluate_policy_model(t, m, policy);
  CoreId at = t.start;
  for (std::size_t k = 0; k < t.homes.size(); ++k) {
    if (sol.actions[k] == AccessAction::kMigrate) {
      at = t.homes[k];
    }
    EXPECT_EQ(sol.locations[k], at);
    if (sol.actions[k] == AccessAction::kLocal) {
      EXPECT_EQ(at, t.homes[k]);
    }
  }
}

TEST(PolicyEval, CostEstimateTracksNearOptimalOnUniformRuns) {
  // On a trace with uniform geometric run lengths the cost-estimate
  // policy should land within 3x of optimal (it knows the cost model and
  // the mean run length; it lacks only the future).
  const Mesh mesh(4, 4);
  const CostModel m(mesh, CostModelParams{});
  Rng rng(9);
  ModelTrace t;
  t.start = 0;
  for (int burst = 0; burst < 100; ++burst) {
    const auto core = static_cast<CoreId>(rng.next_below(16));
    const auto len = rng.next_geometric(0.5);
    for (std::uint64_t i = 0; i < len; ++i) {
      t.homes.push_back(core);
      t.ops.push_back(MemOp::kRead);
    }
  }
  const auto opt = solve_optimal_migrate_ra(t, m);
  StandardPolicy policy = StandardPolicy::make("cost-estimate", mesh, m);
  const auto got = evaluate_policy_model(t, m, policy);
  EXPECT_LE(got.total_cost, opt.total_cost * 3);
}

}  // namespace
}  // namespace em2
