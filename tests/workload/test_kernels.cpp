#include "workload/kernels.hpp"

#include <gtest/gtest.h>

#include "placement/placement.hpp"
#include "trace/run_length.hpp"
#include "workload/registry.hpp"

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

TEST(Ocean, ProducesFigure2Shape) {
  // The headline reproduction: under first-touch placement, roughly half
  // of the non-native accesses sit in run-length-1 runs (the paper says
  // "about half"); we accept 30-70% for robustness across parameters.
  OceanParams p;
  p.threads = 16;
  p.iterations = 4;
  const TraceSet ts = make_ocean(p);
  const auto r = run_lengths_of(ts, 16);
  EXPECT_GT(r.nonnative_accesses, 1000u);
  const double f1 = r.fraction_accesses_in_len1_runs();
  EXPECT_GT(f1, 0.3);
  EXPECT_LT(f1, 0.7);
  // And the rest form genuinely long runs (mass above length 4).
  std::uint64_t long_mass = 0;
  for (std::uint64_t len = 4; len <= r.accesses_by_run_length.max_bin_used();
       ++len) {
    long_mass += r.accesses_by_run_length.count(len);
  }
  EXPECT_GT(long_mass, r.nonnative_accesses / 5);
}

TEST(Ocean, RunLength1MostlyReturnsToOrigin) {
  // "usually back to the core from which the first migration originated".
  OceanParams p;
  p.threads = 16;
  p.iterations = 2;
  const TraceSet ts = make_ocean(p);
  const auto r = run_lengths_of(ts, 16);
  EXPECT_GT(r.fraction_len1_returning(), 0.8);
}

TEST(Ocean, FirstTouchKeepsMostAccessesNative) {
  // A good placement keeps a thread's private rows local: the stencil's
  // interior accesses dominate, so most accesses must be native.
  OceanParams p;
  p.threads = 16;
  const TraceSet ts = make_ocean(p);
  const auto r = run_lengths_of(ts, 16);
  EXPECT_GT(static_cast<double>(r.native_accesses) /
                static_cast<double>(r.total_accesses),
            0.7);
}

TEST(Ocean, DeterministicForSeed) {
  OceanParams p;
  p.threads = 8;
  const TraceSet a = make_ocean(p);
  const TraceSet b = make_ocean(p);
  ASSERT_EQ(a.total_accesses(), b.total_accesses());
  for (std::size_t t = 0; t < a.num_threads(); ++t) {
    for (std::size_t i = 0; i < a.thread(t).size(); ++i) {
      ASSERT_EQ(a.thread(t)[i], b.thread(t)[i]);
    }
  }
}

TEST(Transpose, RemoteRunsMatchBlockWidth) {
  TransposeParams p;
  p.threads = 8;
  p.words_per_block = 16;
  const TraceSet ts = make_transpose(p);
  const auto r = run_lengths_of(ts, 8);
  // Transpose reads remote blocks of 16 words: run length 16 dominates.
  EXPECT_GT(r.runs_by_run_length.count(16), 0u);
  EXPECT_GT(r.accesses_by_run_length.count(16),
            r.nonnative_accesses / 2);
}

TEST(Lu, PivotReadsAreLongRuns) {
  LuParams p;
  p.threads = 8;
  p.block_words = 32;
  const TraceSet ts = make_lu(p);
  const auto r = run_lengths_of(ts, 8);
  EXPECT_GT(r.runs_by_run_length.count(32), 0u);
}

TEST(Radix, BucketUpdatesAreShortRuns) {
  RadixParams p;
  p.threads = 8;
  const TraceSet ts = make_radix(p);
  const auto r = run_lengths_of(ts, 8);
  // Read-modify-write of one bucket: run length 2 is the signature.
  EXPECT_GT(r.runs_by_run_length.count(2), 100u);
}

TEST(Barnes, IrregularShortBursts) {
  BarnesParams p;
  p.threads = 8;
  const TraceSet ts = make_barnes(p);
  const auto r = run_lengths_of(ts, 8);
  EXPECT_GT(r.nonnative_runs, 100u);
  // Bursts are 1-3 accesses: the histogram mass must sit at short runs.
  EXPECT_GT(r.accesses_by_run_length.count(1) +
                r.accesses_by_run_length.count(2) +
                r.accesses_by_run_length.count(3),
            r.nonnative_accesses / 2);
}

TEST(Registry, AllWorkloadsBuildAndAreNonTrivial) {
  for (const auto& name : workload_names()) {
    const auto ts = make_by_name(name, 8, 1, 1);
    ASSERT_TRUE(ts.has_value()) << name;
    EXPECT_GE(ts->num_threads(), 8u) << name;
    EXPECT_GT(ts->total_accesses(), 500u) << name;
  }
  EXPECT_FALSE(make_by_name("no-such-workload", 8, 1, 1).has_value());
}

TEST(Registry, ScaleGrowsTraces) {
  const auto small = make_by_name("ocean", 8, 1, 1);
  const auto large = make_by_name("ocean", 8, 3, 1);
  ASSERT_TRUE(small && large);
  EXPECT_GT(large->total_accesses(), small->total_accesses());
}

}  // namespace
}  // namespace em2::workload
