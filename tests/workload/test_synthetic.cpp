#include "workload/synthetic.hpp"

#include <gtest/gtest.h>

#include "placement/placement.hpp"
#include "trace/run_length.hpp"
#include "workload/stack_workloads.hpp"

namespace em2::workload {
namespace {

RunLengthReport run_lengths_of(const TraceSet& ts, std::int32_t cores) {
  Placement placement = Placement::first_touch(ts, cores);
  RunLengthAnalyzer analyzer;
  for (const auto& t : ts.threads()) {
    const auto homes = home_sequence(t, ts, placement);
    analyzer.add_thread(t.native_core(), homes);
  }
  return analyzer.report();
}

TEST(GeometricRuns, MeanRunLengthTracksParameter) {
  GeometricRunsParams p;
  p.threads = 8;
  p.accesses_per_thread = 4000;
  p.mean_run_length = 4.0;
  const TraceSet ts = make_geometric_runs(p);
  const auto r = run_lengths_of(ts, 8);
  const double measured =
      static_cast<double>(r.nonnative_accesses) /
      static_cast<double>(r.nonnative_runs);
  EXPECT_NEAR(measured, 4.0, 1.0);
}

TEST(GeometricRuns, ShortParameterGivesShortRuns) {
  GeometricRunsParams p;
  p.threads = 8;
  p.accesses_per_thread = 4000;
  p.mean_run_length = 1.0;  // every generated non-native run has length 1
  const TraceSet ts = make_geometric_runs(p);
  const auto r = run_lengths_of(ts, 8);
  // Back-to-back runs that happen to hit the same victim merge in the
  // analyzer, so slightly below 1.0 is expected.
  EXPECT_GT(r.fraction_accesses_in_len1_runs(), 0.85);
}

TEST(SharingMix, SharedFractionControlsRemoteAccesses) {
  SharingMixParams lo;
  lo.threads = 8;
  lo.shared_fraction = 0.1;
  SharingMixParams hi = lo;
  hi.shared_fraction = 0.7;
  const auto r_lo = run_lengths_of(make_sharing_mix(lo), 8);
  const auto r_hi = run_lengths_of(make_sharing_mix(hi), 8);
  EXPECT_GT(r_hi.nonnative_accesses, r_lo.nonnative_accesses);
}

TEST(Hotspot, HotBlocksConcentrateAtOneCore) {
  HotspotParams p;
  p.threads = 8;
  p.hot_fraction = 0.5;
  const TraceSet ts = make_hotspot(p);
  Placement placement = Placement::first_touch(ts, 8);
  // All hot blocks are first-touched by thread 0.
  for (std::int64_t b = 0; b < p.hot_blocks; ++b) {
    const Addr addr = 0x0100'0000 + static_cast<Addr>(b) * 64;
    EXPECT_EQ(placement.home_of_block(ts.block_of(addr)), 0);
  }
}

TEST(Uniform, SpreadsAccessesAcrossCores) {
  UniformParams p;
  p.threads = 8;
  const TraceSet ts = make_uniform(p);
  const auto r = run_lengths_of(ts, 8);
  // Uniform random blocks: ~7/8 of accesses are non-native.
  const double remote_frac =
      static_cast<double>(r.nonnative_accesses) /
      static_cast<double>(r.total_accesses);
  EXPECT_GT(remote_frac, 0.6);
}

TEST(ProducerConsumer, ConsumersAccessRemotely) {
  ProducerConsumerParams p;
  p.threads = 8;
  const TraceSet ts = make_producer_consumer(p);
  Placement placement = Placement::first_touch(ts, 8);
  RunLengthAnalyzer analyzer;
  for (const auto& t : ts.threads()) {
    const auto homes = home_sequence(t, ts, placement);
    analyzer.add_thread(t.native_core(), homes);
  }
  const auto& r = analyzer.report();
  // Producers touch first -> consumers' reads are all non-native.
  EXPECT_GT(r.nonnative_accesses, 1000u);
}

TEST(ProducerConsumerDeath, OddThreadsRejected) {
  ProducerConsumerParams p;
  p.threads = 7;
  EXPECT_DEATH(make_producer_consumer(p), "even thread count");
}

TEST(StackWorkloads, DeriveMatchesTraceLength) {
  GeometricRunsParams p;
  p.threads = 4;
  p.accesses_per_thread = 200;
  const TraceSet ts = make_geometric_runs(p);
  Placement placement = Placement::striped(4);
  const auto homes = home_sequence(ts.thread(0), ts, placement);
  const StackModelTrace st =
      derive_stack_trace(ts.thread(0), homes, DeriveParams{});
  EXPECT_EQ(st.steps.size(), ts.thread(0).size());
  EXPECT_EQ(st.native, ts.thread(0).native_core());
  for (const auto& s : st.steps) {
    EXPECT_LE(s.pops, 4u);  // bounded by max_extra + 2
  }
}

TEST(StackWorkloads, GeneratorsRespectCoreBounds) {
  for (const auto& st :
       {make_stack_streaming(8, 500, 1), make_stack_expression(8, 500, 2),
        make_stack_mixed(8, 500, 3)}) {
    EXPECT_GE(st.steps.size(), 490u);
    for (const auto& s : st.steps) {
      EXPECT_GE(s.home, 0);
      EXPECT_LT(s.home, 8);
      EXPECT_LE(s.pops, 8u);
    }
  }
}

TEST(StackWorkloads, StreamingIsShallowerThanExpression) {
  const auto stream = make_stack_streaming(8, 1000, 5);
  const auto expr = make_stack_expression(8, 1000, 5);
  auto mean_pops = [](const StackModelTrace& t) {
    double sum = 0;
    for (const auto& s : t.steps) {
      sum += s.pops;
    }
    return sum / static_cast<double>(t.steps.size());
  };
  EXPECT_LT(mean_pops(stream), mean_pops(expr));
}

}  // namespace
}  // namespace em2::workload
