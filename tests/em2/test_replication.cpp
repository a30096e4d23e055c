#include "em2/replication.hpp"

#include <gtest/gtest.h>

#include "workload/kernels.hpp"
#include "workload/synthetic.hpp"

namespace em2 {
namespace {

TEST(ReplicableBlocks, ClassifiesByWriteCount) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x000, MemOp::kWrite);  // block 0: 1 write -> replicable
  t0.append(0x040, MemOp::kWrite);  // block 1: 2 writes -> not
  t0.append(0x040, MemOp::kWrite);
  t0.append(0x080, MemOp::kRead);   // block 2: never written -> replicable
  ts.add_thread(std::move(t0));
  const auto repl = replicable_blocks(ts, 1);
  EXPECT_TRUE(repl.count(0));
  EXPECT_FALSE(repl.count(1));
  EXPECT_TRUE(repl.count(2));
}

TEST(ReplicableBlocks, ThresholdIsConfigurable) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x000, MemOp::kWrite);
  t0.append(0x000, MemOp::kWrite);
  ts.add_thread(std::move(t0));
  EXPECT_FALSE(replicable_blocks(ts, 1).count(0));
  EXPECT_TRUE(replicable_blocks(ts, 2).count(0));
}

TEST(ReplicableBlocks, CountsWritesAcrossThreads) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x000, MemOp::kWrite);
  ThreadTrace t1(1, 1);
  t1.append(0x000, MemOp::kWrite);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  EXPECT_FALSE(replicable_blocks(ts, 1).count(0));
}

TEST(ReplicableBlocks, TwoByteBlocksSplitAWord) {
  // A 4-byte word spans two 2-byte blocks: a word written twice
  // disqualifies both, and a read-only word's blocks stay replicable.
  TraceSet ts(2);
  ThreadTrace t0(0, 0);
  t0.append(8, MemOp::kWrite);  // word 2 = blocks 4 and 5
  t0.append(8, MemOp::kWrite);
  t0.append(10, MemOp::kRead);  // block 5
  t0.append(4, MemOp::kRead);   // word 1 = blocks 2 and 3, never written
  ts.add_thread(std::move(t0));
  const auto repl = replicable_blocks(ts, 1);
  EXPECT_FALSE(repl.count(4));
  EXPECT_FALSE(repl.count(5));
  EXPECT_TRUE(repl.count(2));
}

TEST(ReplicableBlocks, OneByteBlocksSplitAWord) {
  TraceSet ts(1);
  ThreadTrace t0(0, 0);
  t0.append(8, MemOp::kWrite);  // word 2 = blocks 8..11
  t0.append(9, MemOp::kWrite);
  t0.append(11, MemOp::kRead);
  t0.append(4, MemOp::kRead);   // word 1, never written
  t0.append(12, MemOp::kWrite);  // word 3, written once
  ts.add_thread(std::move(t0));
  const auto repl = replicable_blocks(ts, 1);
  EXPECT_FALSE(repl.count(8));
  EXPECT_FALSE(repl.count(9));
  EXPECT_FALSE(repl.count(11));
  EXPECT_TRUE(repl.count(4));
  EXPECT_TRUE(repl.count(12));
}

TEST(Replication, TableLookupMigrationsCollapse) {
  // The showcase: the lookup table is written only during init, so every
  // table read becomes local and migrations all but disappear.
  workload::TableLookupParams p;
  p.threads = 16;
  const TraceSet ts = workload::make_table_lookup(p);
  const Mesh mesh(4, 4);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, 16);
  const auto replicable = replicable_blocks(ts, 1);

  const Em2RunReport base =
      run_em2(ts, placement, mesh, cost, Em2Params{});
  const Em2RunReport repl = run_em2_replicated(
      ts, placement, mesh, cost, Em2Params{}, replicable);

  EXPECT_GT(base.counters.get("migrations"), 1000u);
  EXPECT_LT(repl.counters.get("migrations"),
            base.counters.get("migrations") / 10);
  EXPECT_GT(repl.counters.get("replicated_reads"), 1000u);
  EXPECT_LT(repl.total_thread_cost, base.total_thread_cost / 5);
}

TEST(Replication, AccessCountsConserved) {
  workload::TableLookupParams p;
  p.threads = 8;
  const TraceSet ts = workload::make_table_lookup(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, 8);
  const auto replicable = replicable_blocks(ts, 1);
  const Em2RunReport repl = run_em2_replicated(
      ts, placement, mesh, cost, Em2Params{}, replicable);
  // Replicated reads plus machine-served accesses must equal the trace.
  EXPECT_EQ(repl.counters.get("accesses"), ts.total_accesses());
}

TEST(Replication, WriteHeavyWorkloadSeesNoBenefit) {
  workload::ProducerConsumerParams p;
  p.threads = 8;
  p.items_per_pair = 128;
  const TraceSet ts = workload::make_producer_consumer(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, 8);
  const auto replicable = replicable_blocks(ts, 1);
  const Em2RunReport base =
      run_em2(ts, placement, mesh, cost, Em2Params{});
  const Em2RunReport repl = run_em2_replicated(
      ts, placement, mesh, cost, Em2Params{}, replicable);
  // The shared buffers are written twice (init + rewrite), so they are
  // not replicable; costs must be identical.
  EXPECT_EQ(repl.total_thread_cost, base.total_thread_cost);
  EXPECT_EQ(repl.counters.get("replicated_reads"), 0u);
}

TEST(Replication, EmptyReplicableSetMatchesPlainEm2) {
  workload::SharingMixParams p;
  p.threads = 8;
  p.accesses_per_thread = 200;
  const TraceSet ts = workload::make_sharing_mix(p);
  const Mesh mesh = Mesh::near_square(8);
  const CostModel cost(mesh, CostModelParams{});
  Placement placement = Placement::first_touch(ts, 8);
  const Em2RunReport base =
      run_em2(ts, placement, mesh, cost, Em2Params{});
  const Em2RunReport repl = run_em2_replicated(
      ts, placement, mesh, cost, Em2Params{}, {});
  EXPECT_EQ(repl.total_thread_cost, base.total_thread_cost);
  EXPECT_EQ(repl.counters.get("migrations"),
            base.counters.get("migrations"));
}

}  // namespace
}  // namespace em2
