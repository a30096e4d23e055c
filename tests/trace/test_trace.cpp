#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace em2 {
namespace {

TEST(ThreadTrace, AppendAndIndex) {
  ThreadTrace t(3, 5);
  EXPECT_EQ(t.thread(), 3);
  EXPECT_EQ(t.native_core(), 5);
  EXPECT_TRUE(t.empty());
  t.append(0x100, MemOp::kRead, 2);
  t.append(Access{0x104, MemOp::kWrite, 0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x100u);
  EXPECT_EQ(t[0].op, MemOp::kRead);
  EXPECT_EQ(t[0].gap, 2u);
  EXPECT_EQ(t[1].op, MemOp::kWrite);
}

/// The 4-byte layout's edges: gap 31, offsets 0 and 0xFF'FFFF, and four
/// regions, one above 2^32 and one at the top of the address space.
TEST(ThreadTrace, NarrowLayoutHoldsFourRegionsGap31AndBothOffsetEdges) {
  const std::vector<Access> want = {
      {0xFFFF'FFFFull, MemOp::kWrite, 31},
      {0, MemOp::kRead, 0},
      {0x1'0000'0000ull, MemOp::kRead, 5},
      {0xFFFF'FFFF'FFFF'FFFFull, MemOp::kRead, 31},
      {0xFFFF'FFFF'FF00'0000ull, MemOp::kWrite, 1},
      {0xFF'FFFFull, MemOp::kWrite, 30},
      {0x1'00FF'FFFFull, MemOp::kRead, 0},
      {0xFF00'0000ull, MemOp::kRead, 7},
  };
  ThreadTrace t(0, 0);
  for (const Access& a : want) {
    t.append(a);
  }
  EXPECT_FALSE(t.wide());
  ASSERT_EQ(t.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(t[i], want[i]) << "access " << i;
  }
  EXPECT_EQ(t.max_addr(), 0xFFFF'FFFF'FFFF'FFFFull);
}

/// The first access that does not fit re-lays the thread out wide and
/// keeps every earlier record; later narrow-sized accesses stay exact.
TEST(ThreadTrace, AnAccessThatDoesNotFitWidensTheThreadOnce) {
  // The earlier records take all four regions.
  const Addr bases[] = {0xFF00'0000ull, 0, 0x1'0000'0000ull,
                        0xFFFF'FFFF'FF00'0000ull};
  const Access gap_32{0x40, MemOp::kRead, 32};
  const Access fifth_region{0x1'0100'0000ull, MemOp::kRead, 5};
  const Access long_gap{0x40, MemOp::kWrite, 0x8000'0000u};
  const Access gap_edge{0xFFFF'FFFFull, MemOp::kWrite, 0x7FFF'FFFFu};
  for (const Access& outsized : {gap_32, fifth_region, long_gap, gap_edge}) {
    ThreadTrace t(0, 0);
    std::vector<Access> want;
    for (std::uint32_t i = 0; i < 100; ++i) {
      want.push_back(Access{bases[i % 4] + 0xFF'0000 + 4 * i,
                            i % 3 ? MemOp::kRead : MemOp::kWrite, i % 4});
      t.append(want.back());
    }
    EXPECT_FALSE(t.wide());
    want.push_back(outsized);
    t.append(outsized);
    EXPECT_TRUE(t.wide());
    want.push_back(Access{0x80, MemOp::kWrite, 1});
    t.append(want.back());
    ASSERT_EQ(t.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(t[i], want[i]) << "access " << i;
    }
    EXPECT_EQ(t.max_addr(), 0xFFFF'FFFF'FFFF'018Cull);
  }
}

/// TraceSet cursors decode a narrow thread in 64-access batches and walk a
/// wide one in place; either way they yield exactly the operator[] and
/// for_each sequence, batch edges included.  add_thread leaves either
/// layout at exact capacity.
TEST(TraceSet, CursorsYieldTheIndexedSequenceOnBothLayouts) {
  for (const bool wide : {false, true}) {
    TraceSet ts(64);
    const std::vector<std::size_t> lengths = {0, 1, 63, 64, 65, 1000};
    for (std::size_t t = 0; t < lengths.size(); ++t) {
      ThreadTrace trace(static_cast<ThreadId>(t), 0);
      for (std::size_t i = 0; i < lengths[t]; ++i) {
        // Every third access lies in the 64-bit region; a wide thread gets
        // a gap of 32 half way through.
        const Addr addr =
            i % 3 == 2 ? 0xABCD'0000'0000ull + 8 * i : 0x1000 + 8 * i;
        const auto gap = static_cast<std::uint32_t>(
            wide && i == lengths[t] / 2 ? 32 : i % 7);
        trace.append(addr, i % 2 ? MemOp::kWrite : MemOp::kRead, gap);
      }
      ts.add_thread(std::move(trace));
    }
    for (std::size_t t = 0; t < lengths.size(); ++t) {
      const ThreadTrace& trace = ts.thread(t);
      ASSERT_EQ(trace.size(), lengths[t]);
      EXPECT_EQ(trace.wide(), wide && lengths[t] > 0) << "length "
                                                      << lengths[t];
      EXPECT_EQ(trace.storage_bytes(), (trace.wide() ? 16 : 4) * lengths[t]);
      std::vector<Access> visited;
      trace.for_each([&](const Access& a) { visited.push_back(a); });
      ASSERT_EQ(visited.size(), lengths[t]);
      auto cursor = ts.make_cursor(t);
      for (std::size_t i = 0; i < lengths[t]; ++i) {
        const Access* got = cursor->next();
        ASSERT_NE(got, nullptr) << "length " << lengths[t] << " at " << i;
        EXPECT_EQ(*got, trace[i]) << "length " << lengths[t] << " at " << i;
        EXPECT_EQ(visited[i], trace[i]);
      }
      EXPECT_EQ(cursor->next(), nullptr) << "length " << lengths[t];
      EXPECT_EQ(cursor->next(), nullptr);
    }
  }
}

TEST(TraceSet, BlockMapping) {
  TraceSet ts(64);
  EXPECT_EQ(ts.block_of(0), 0u);
  EXPECT_EQ(ts.block_of(63), 0u);
  EXPECT_EQ(ts.block_of(64), 1u);
  EXPECT_EQ(ts.block_of(0x1000), 64u);
}

TEST(TraceSet, BlockMappingOtherSizes) {
  TraceSet ts32(32);
  EXPECT_EQ(ts32.block_of(31), 0u);
  EXPECT_EQ(ts32.block_of(32), 1u);
  TraceSet ts128(128);
  EXPECT_EQ(ts128.block_of(127), 0u);
  EXPECT_EQ(ts128.block_of(128), 1u);
}

TEST(TraceSet, TotalAccesses) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0, MemOp::kRead);
  t0.append(4, MemOp::kRead);
  ThreadTrace t1(1, 1);
  t1.append(8, MemOp::kWrite);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  EXPECT_EQ(ts.num_threads(), 2u);
  EXPECT_EQ(ts.total_accesses(), 3u);
}

TEST(TraceSet, TouchedBlocksSortedUnique) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x100, MemOp::kRead);  // block 4
  t0.append(0x104, MemOp::kRead);  // block 4 again
  t0.append(0x000, MemOp::kRead);  // block 0
  ts.add_thread(std::move(t0));
  const auto blocks = ts.touched_blocks();
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], 0u);
  EXPECT_EQ(blocks[1], 4u);
}

TEST(TraceSetDeath, NonDenseThreadIdsAbort) {
  TraceSet ts(64);
  ThreadTrace wrong(1, 0);  // first thread must have id 0
  EXPECT_DEATH(ts.add_thread(std::move(wrong)), "dense id order");
}

TEST(TraceSetDeath, NonPowerOfTwoBlockAborts) {
  EXPECT_DEATH(TraceSet ts(48), "power of two");
}

}  // namespace
}  // namespace em2
