#include "optimal/dp_stack.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace em2 {
namespace {

CostModel model_for(std::int32_t cores) {
  return CostModel(Mesh::near_square(cores), CostModelParams{});
}

StackModelTrace steps_of(std::vector<StackStep> steps, CoreId native = 0) {
  StackModelTrace t;
  t.steps = std::move(steps);
  t.native = native;
  return t;
}

TEST(DpStack, EmptyTraceIsFree) {
  const CostModel m = model_for(4);
  const auto sol = solve_optimal_stack(steps_of({}), m, 8);
  EXPECT_EQ(sol.total_cost, 0u);
  EXPECT_EQ(sol.migrations, 0u);
}

TEST(DpStack, AllNativeIsFree) {
  const CostModel m = model_for(4);
  const auto sol = solve_optimal_stack(
      steps_of({{0, 1, 1}, {0, 2, 1}, {0, 1, 2}}), m, 8);
  EXPECT_EQ(sol.total_cost, 0u);
  EXPECT_EQ(sol.migrations, 0u);
  EXPECT_TRUE(sol.chosen_depths.empty());
}

TEST(DpStack, SingleRemoteVisitCarriesMinimum) {
  // One remote access needing 1 entry: the optimum carries exactly what
  // is needed — pc + 1 word, nothing more (any extra word costs bits).
  CostModelParams params;
  params.link_width_bits = 32;  // make every extra word visible in flits
  const CostModel m(Mesh(2, 2), params);
  const auto sol =
      solve_optimal_stack(steps_of({{1, 1, 1}}), m, 8);
  ASSERT_EQ(sol.chosen_depths.size(), 1u);
  EXPECT_EQ(sol.chosen_depths[0], 1u);
  EXPECT_EQ(sol.migrations, 1u);
  EXPECT_EQ(sol.forced_returns, 0u);
}

TEST(DpStack, LongRemoteRunCarriesEnoughToAvoidUnderflow) {
  // A remote run that net-consumes one carried entry per step: carrying
  // too little forces bounce trips; the DP should carry enough up front.
  CostModelParams params;
  params.link_width_bits = 32;
  const CostModel m(Mesh(2, 2), params);
  std::vector<StackStep> steps;
  for (int i = 0; i < 4; ++i) {
    steps.push_back({1, 2, 1});  // each step consumes net 1
  }
  const auto sol = solve_optimal_stack(steps_of(steps), m, 8);
  EXPECT_EQ(sol.forced_returns, 0u);
  ASSERT_GE(sol.chosen_depths.size(), 1u);
  // Needs 2 + 1 + 1 + 1 = 5 entries to survive all four steps.
  EXPECT_EQ(sol.chosen_depths[0], 5u);
  EXPECT_EQ(sol.migrations, 1u);
}

TEST(DpStack, OverflowForcesReturnHome) {
  // A pushy remote run overflows any window: the model must include a
  // forced return.  Window 4, pushes +3 per step after the first.
  const CostModel m = model_for(4);
  std::vector<StackStep> steps;
  steps.push_back({1, 0, 3});
  steps.push_back({1, 0, 3});  // cumulative 6 > window 4 somewhere here
  const auto sol = solve_optimal_stack(steps_of(steps), m, 4);
  EXPECT_GE(sol.forced_returns, 1u);
}

TEST(DpStack, ContextBitsScaleWithDepth) {
  CostModelParams params;
  const CostModel m(Mesh(2, 2), params);
  const auto shallow =
      solve_optimal_stack(steps_of({{1, 1, 0}}), m, 8);
  // pc + 1 word.
  EXPECT_EQ(shallow.context_bits, params.pc_bits + params.word_bits);
}

TEST(DpStackDeath, PopsBeyondWindowAbort) {
  const CostModel m = model_for(4);
  EXPECT_DEATH(solve_optimal_stack(steps_of({{1, 9, 0}}), m, 8),
               "pops must fit");
}

// Optimality property: DP == brute force on random tiny instances.
// GoogleTest has no printer for this struct, so each case's name is its
// raw bytes.  `name_word` fills the four bytes that would otherwise be
// padding (indeterminate, and different from run to run), so every name is
// fixed; its values only keep the names the cases have been listed under.
struct StackCase {
  std::int32_t cores;
  int length;
  std::uint32_t window;
  std::uint32_t name_word;
  std::uint64_t seed;
};
static_assert(sizeof(StackCase) == 24, "StackCase must have no padding");

class StackDpVsBruteForce : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackDpVsBruteForce, ExactlyOptimal) {
  [[maybe_unused]] const auto [cores, length, window, name_word, seed] =
      GetParam();
  const CostModel m = model_for(cores);
  Rng rng(seed);
  StackModelTrace t;
  t.native = 0;
  for (int i = 0; i < length; ++i) {
    StackStep s;
    s.home = static_cast<CoreId>(
        rng.next_below(static_cast<std::uint64_t>(cores)));
    s.pops = static_cast<std::uint32_t>(rng.next_below(3));
    s.pushes = static_cast<std::uint32_t>(rng.next_below(3));
    t.steps.push_back(s);
  }
  const auto dp = solve_optimal_stack(t, m, window);
  const auto bf = brute_force_stack(t, m, window);
  EXPECT_EQ(dp.total_cost, bf.total_cost)
      << "cores=" << cores << " len=" << length << " window=" << window
      << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StackDpVsBruteForce,
    ::testing::Values(StackCase{2, 5, 4, ~0u, 1}, StackCase{2, 7, 4, 0, 2},
                      StackCase{4, 6, 4, 0, 3}, StackCase{4, 7, 6, 0, 4},
                      StackCase{4, 8, 4, ~0u, 5}, StackCase{6, 6, 5, 0, 6},
                      StackCase{9, 7, 4, 0, 7}, StackCase{9, 8, 6, 0, 8},
                      StackCase{4, 9, 8, ~0u, 9}, StackCase{9, 6, 8, 0, 10}));

// Policies can never beat the DP optimum (upper-bound property, the
// paper's whole reason for the analytical model).
class StackPolicyBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StackPolicyBound, OptimalIsLowerBound) {
  const CostModel m = model_for(9);
  Rng rng(GetParam());
  StackModelTrace t;
  t.native = 0;
  for (int i = 0; i < 300; ++i) {
    StackStep s;
    s.home = static_cast<CoreId>(rng.next_below(9));
    s.pops = static_cast<std::uint32_t>(rng.next_below(4));
    s.pushes = static_cast<std::uint32_t>(rng.next_below(4));
    t.steps.push_back(s);
  }
  const std::uint32_t window = 8;
  const auto opt = solve_optimal_stack(t, m, window);
  for (const char* spec :
       {"fixed:2", "fixed:4", "min-need", "full-window", "adaptive"}) {
    auto policy = make_stack_policy(spec);
    ASSERT_NE(policy, nullptr) << spec;
    const auto got = evaluate_stack_policy(t, m, window, *policy);
    EXPECT_GE(got.total_cost, opt.total_cost) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackPolicyBound,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(StackPolicies, FactoryAndNames) {
  EXPECT_EQ(make_stack_policy("fixed:3")->name(), "fixed:3");
  EXPECT_EQ(make_stack_policy("min-need")->name(), "min-need");
  EXPECT_EQ(make_stack_policy("full-window")->name(), "full-window");
  EXPECT_EQ(make_stack_policy("adaptive")->name(), "adaptive");
  EXPECT_EQ(make_stack_policy("bogus"), nullptr);
}

TEST(StackPolicies, MinNeedVsFullWindowTradeoff) {
  // Streaming run with deep consumption: min-need must bounce more often
  // (forced returns), full-window must move more bits.
  const CostModel m = model_for(4);
  StackModelTrace t;
  t.native = 0;
  for (int i = 0; i < 50; ++i) {
    t.steps.push_back({1, 2, 1});  // net -1 per step
  }
  const std::uint32_t window = 8;
  MinNeedPolicy min_need;
  FullWindowPolicy full;
  const auto r_min = evaluate_stack_policy(t, m, window, min_need);
  const auto r_full = evaluate_stack_policy(t, m, window, full);
  EXPECT_GT(r_min.forced_returns, r_full.forced_returns);
  EXPECT_LT(r_min.context_bits / std::max<std::uint64_t>(r_min.migrations, 1),
            r_full.context_bits /
                std::max<std::uint64_t>(r_full.migrations, 1));
}

}  // namespace
}  // namespace em2
