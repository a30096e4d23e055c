#include "em2ra/hybrid_machine.hpp"
#include "em2ra/hybrid_sim.hpp"

#include <gtest/gtest.h>

#include "workload/synthetic.hpp"

namespace em2 {
namespace {

struct HybridFixture {
  Mesh mesh{4, 4};
  CostModel cost{mesh, CostModelParams{}};
  Em2Params params{};
  std::vector<CoreId> native{0, 1, 2, 3};
};

TEST(HybridMachine, RemotePathLeavesThreadInPlace) {
  HybridFixture f;
  AlwaysRemotePolicy policy;
  HybridMachine m(f.mesh, f.cost, f.params, f.native);
  const HybridOutcome out = m.access_hybrid(policy, 0, 5, MemOp::kRead, 0x100, 1);
  EXPECT_TRUE(out.remote);
  EXPECT_FALSE(out.base.migrated);
  EXPECT_EQ(m.location(0), 0);  // did not move
  EXPECT_EQ(out.base.thread_cost, f.cost.remote_access(0, 5, MemOp::kRead));
  EXPECT_EQ(m.counters().get("remote_accesses"), 1u);
  EXPECT_EQ(m.counters().get("migrations"), 0u);
}

TEST(HybridMachine, MigratePathMatchesEm2) {
  HybridFixture f;
  AlwaysMigratePolicy policy;
  HybridMachine m(f.mesh, f.cost, f.params, f.native);
  const HybridOutcome out = m.access_hybrid(policy, 0, 5, MemOp::kRead, 0x100, 1);
  EXPECT_FALSE(out.remote);
  EXPECT_TRUE(out.base.migrated);
  EXPECT_EQ(m.location(0), 5);
}

TEST(HybridMachine, LocalAccessBypassesDecision) {
  HybridFixture f;
  AlwaysRemotePolicy policy;
  HybridMachine m(f.mesh, f.cost, f.params, f.native);
  const HybridOutcome out = m.access_hybrid(policy, 0, 0, MemOp::kRead, 0x100, 0);
  EXPECT_FALSE(out.remote);
  EXPECT_TRUE(out.base.local);
}

TEST(HybridMachine, RemoteTrafficOnRemoteVnets) {
  HybridFixture f;
  AlwaysRemotePolicy policy;
  HybridMachine m(f.mesh, f.cost, f.params, f.native);
  m.access_hybrid(policy, 0, 5, MemOp::kRead, 0x100, 1);
  m.access_hybrid(policy, 0, 6, MemOp::kWrite, 0x200, 2);
  EXPECT_GT(m.vnet_bits(vnet::kRemoteRequest), 0u);
  EXPECT_GT(m.vnet_bits(vnet::kRemoteReply), 0u);
  EXPECT_EQ(m.vnet_bits(vnet::kMigrationGuest), 0u);
  // Reads reply with a word; writes request carries addr + word.
  EXPECT_EQ(m.remote_reply_bits(), f.cost.params().word_bits);
  EXPECT_EQ(m.remote_request_bits(),
            2 * f.cost.params().addr_bits + f.cost.params().word_bits);
}

TEST(HybridMachine, WriteRemoteAccessKeepsSingleHome) {
  // Remote writes do not replicate: a subsequent migration to the home
  // still finds the up-to-date single copy (structural: no cache state
  // exists anywhere but the home).
  HybridFixture f;
  f.params.model_caches = true;
  AlwaysRemotePolicy policy;
  HybridMachine m(f.mesh, f.cost, f.params, f.native);
  m.access_hybrid(policy, 0, 5, MemOp::kWrite, 0x100, 1);
  // The home core's hierarchy saw the access.
  EXPECT_EQ(m.cache_totals().dram_fills, 1u);
}

TEST(HybridSim, AlwaysMigrateReproducesPureEm2) {
  workload::GeometricRunsParams p;
  p.threads = 8;
  p.accesses_per_thread = 400;
  const TraceSet ts = workload::make_geometric_runs(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, mesh.num_cores());

  StandardPolicy policy = StandardPolicy::make("always-migrate", mesh, cost);
  const HybridRunReport hybrid =
      run_em2ra(ts, placement, mesh, cost, Em2Params{}, policy);
  const Em2RunReport pure =
      run_em2(ts, placement, mesh, cost, Em2Params{});
  EXPECT_EQ(hybrid.em2.total_thread_cost, pure.total_thread_cost);
  EXPECT_EQ(hybrid.em2.counters.get("migrations"),
            pure.counters.get("migrations"));
  EXPECT_EQ(hybrid.remote_accesses, 0u);
}

TEST(HybridSim, AlwaysRemoteNeverMigrates) {
  workload::GeometricRunsParams p;
  p.threads = 8;
  p.accesses_per_thread = 300;
  const TraceSet ts = workload::make_geometric_runs(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, mesh.num_cores());
  StandardPolicy policy = StandardPolicy::make("always-remote", mesh, cost);
  const HybridRunReport r =
      run_em2ra(ts, placement, mesh, cost, Em2Params{}, policy);
  EXPECT_EQ(r.em2.counters.get("migrations"), 0u);
  EXPECT_EQ(r.em2.counters.get("evictions"), 0u);
  EXPECT_GT(r.remote_accesses, 0u);
  EXPECT_DOUBLE_EQ(r.remote_fraction(), 1.0);
}

TEST(HybridSim, HybridBeatsBothPolesOnBimodalRuns) {
  // The paper's central EM2-RA claim: EM2-RA "is uniquely poised to
  // address both the one-off remote cache accesses and the runs of
  // consequent accesses shown in Figure 2".  Build a bimodal workload
  // where home A sees only run-length-1 visits (RA territory) and home B
  // sees long runs (migration territory); a home-history policy must
  // beat BOTH pure poles.
  TraceSet ts(64);
  const std::int32_t threads = 8;
  auto block_addr = [](std::int32_t owner, std::int64_t i) {
    return 0x0100'0000 + (static_cast<Addr>(owner) * 1024 +
                          static_cast<Addr>(i)) *
                             64;
  };
  for (std::int32_t t = 0; t < threads; ++t) {
    ThreadTrace trace(t, t);
    trace.append(block_addr(t, 0), MemOp::kWrite);  // first-touch my region
    const std::int32_t a = (t + 1) % threads;
    const std::int32_t b = (t + 3) % threads;
    for (int rep = 0; rep < 40; ++rep) {
      // One-off visit to A, bracketed by local work.
      trace.append(block_addr(t, 0), MemOp::kRead);
      trace.append(block_addr(a, 0), MemOp::kRead);
      trace.append(block_addr(t, 0), MemOp::kWrite);
      // Long run at B.
      for (int i = 0; i < 12; ++i) {
        trace.append(block_addr(b, 0), MemOp::kRead);
      }
    }
    ts.add_thread(std::move(trace));
  }
  const Mesh mesh = Mesh::near_square(threads);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, mesh.num_cores());

  StandardPolicy mig = StandardPolicy::make("always-migrate", mesh, cost);
  StandardPolicy ra = StandardPolicy::make("always-remote", mesh, cost);
  StandardPolicy hist = StandardPolicy::make("history:2", mesh, cost);
  const Cost c_mig = run_em2ra(ts, placement, mesh, cost, Em2Params{}, mig)
                         .em2.total_thread_cost;
  const Cost c_ra = run_em2ra(ts, placement, mesh, cost, Em2Params{}, ra)
                        .em2.total_thread_cost;
  const Cost c_hyb = run_em2ra(ts, placement, mesh, cost, Em2Params{}, hist)
                         .em2.total_thread_cost;
  EXPECT_LT(c_hyb, c_mig);
  EXPECT_LT(c_hyb, c_ra);
}

}  // namespace
}  // namespace em2
