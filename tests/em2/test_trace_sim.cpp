#include "em2/trace_sim.hpp"

#include <gtest/gtest.h>

#include "workload/synthetic.hpp"

namespace em2 {
namespace {

TraceSet ping_pong_traces() {
  // Thread 0 alternates between its own block and thread 1's block.
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  ThreadTrace t1(1, 1);
  t1.append(64, MemOp::kWrite);  // t1 first-touches block 1
  for (int i = 0; i < 8; ++i) {
    t0.append(0, MemOp::kRead);   // block 0 (home 0 under striped)
    t0.append(64, MemOp::kRead);  // block 1 (home 1)
  }
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  return ts;
}

TEST(TraceSim, PingPongMigratesEveryOtherAccess) {
  const TraceSet ts = ping_pong_traces();
  const Mesh mesh(2, 1);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(2);
  const Em2RunReport r = run_em2(ts, placement, mesh, cost, Em2Params{});
  // Thread 0: 16 accesses alternating homes starting at home 0 — the
  // first access is local, every later access changes home: 15 moves.
  EXPECT_EQ(r.counters.get("migrations"), 15u);
  EXPECT_EQ(r.counters.get("accesses"), 17u);
  EXPECT_GT(r.total_thread_cost, 0u);
  EXPECT_DOUBLE_EQ(r.migration_rate(), 15.0 / 17.0);
}

TEST(TraceSim, RunLengthReportMatchesStandalone) {
  const TraceSet ts = ping_pong_traces();
  const Mesh mesh(2, 1);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(2);
  const Em2RunReport r = run_em2(ts, placement, mesh, cost, Em2Params{});
  // Thread 0's 8 visits to core 1 are all run-length-1; all but the
  // final one (which has no successor access) return home.
  EXPECT_EQ(r.run_lengths.nonnative_runs_len1, 8u);
  EXPECT_DOUBLE_EQ(r.run_lengths.fraction_len1_returning(), 7.0 / 8.0);
}

TEST(TraceSim, PerThreadCostsSumToTotal) {
  workload::SharingMixParams p;
  p.threads = 8;
  p.accesses_per_thread = 300;
  const TraceSet ts = workload::make_sharing_mix(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, mesh.num_cores());
  const Em2RunReport r = run_em2(ts, placement, mesh, cost, Em2Params{});
  Cost sum = 0;
  for (const Cost c : r.per_thread_cost) {
    sum += c;
  }
  EXPECT_EQ(sum, r.total_thread_cost + r.total_eviction_cost);
}

TEST(TraceSim, DeterministicAcrossRuns) {
  workload::SharingMixParams p;
  p.threads = 4;
  p.accesses_per_thread = 200;
  const TraceSet ts = workload::make_sharing_mix(p);
  const Mesh mesh(2, 2);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, 4);
  const Em2RunReport a = run_em2(ts, placement, mesh, cost, Em2Params{});
  const Em2RunReport b = run_em2(ts, placement, mesh, cost, Em2Params{});
  EXPECT_EQ(a.total_thread_cost, b.total_thread_cost);
  EXPECT_EQ(a.counters.get("migrations"), b.counters.get("migrations"));
  EXPECT_EQ(a.counters.get("evictions"), b.counters.get("evictions"));
}

TEST(TraceSim, MoreGuestContextsMeanFewerEvictions) {
  workload::HotspotParams p;
  p.threads = 8;
  p.accesses_per_thread = 500;
  p.hot_fraction = 0.6;
  const TraceSet ts = workload::make_hotspot(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, mesh.num_cores());
  Em2Params small;
  small.guest_contexts = 1;
  Em2Params large;
  large.guest_contexts = 7;
  const auto r_small = run_em2(ts, placement, mesh, cost, small);
  const auto r_large = run_em2(ts, placement, mesh, cost, large);
  EXPECT_GE(r_small.counters.get("evictions"),
            r_large.counters.get("evictions"));
}

TEST(TraceSim, VnetBitsOnlyOnMigrationNetworks) {
  const TraceSet ts = ping_pong_traces();
  const Mesh mesh(2, 1);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::striped(2);
  const Em2RunReport r = run_em2(ts, placement, mesh, cost, Em2Params{});
  EXPECT_GT(r.vnet_bits[vnet::kMigrationGuest], 0u);
  EXPECT_GT(r.vnet_bits[vnet::kMigrationNative], 0u);
  EXPECT_EQ(r.vnet_bits[vnet::kRemoteRequest], 0u);  // pure EM2: no RA
  EXPECT_EQ(r.vnet_bits[vnet::kRemoteReply], 0u);
}

}  // namespace
}  // namespace em2
