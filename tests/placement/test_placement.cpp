#include "placement/placement.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "trace/round_robin.hpp"
#include "util/rng.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

TEST(StripedPlacement, RoundRobin) {
  StripedPlacement p(4);
  EXPECT_EQ(p.home_of_block(0), 0);
  EXPECT_EQ(p.home_of_block(1), 1);
  EXPECT_EQ(p.home_of_block(4), 0);
  EXPECT_EQ(p.home_of_block(7), 3);
}

TEST(HashedPlacement, InRangeAndDeterministic) {
  HashedPlacement p(16);
  HashedPlacement q(16);
  for (Addr b = 0; b < 1000; ++b) {
    const CoreId c = p.home_of_block(b);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 16);
    EXPECT_EQ(c, q.home_of_block(b));
  }
}

TEST(HashedPlacement, SaltChangesMapping) {
  HashedPlacement a(16, 0);
  HashedPlacement b(16, 99);
  int diff = 0;
  for (Addr blk = 0; blk < 256; ++blk) {
    if (a.home_of_block(blk) != b.home_of_block(blk)) {
      ++diff;
    }
  }
  EXPECT_GT(diff, 128);
}

TEST(TablePlacement, AssignAndFallback) {
  TablePlacement p(4);
  p.assign(10, 3);
  EXPECT_EQ(p.home_of_block(10), 3);
  EXPECT_EQ(p.home_of_block(11), 3);  // fallback: 11 % 4
  EXPECT_EQ(p.assigned_blocks(), 1u);
  p.assign(10, 1);  // reassign
  EXPECT_EQ(p.home_of_block(10), 1);
  EXPECT_EQ(p.assigned_blocks(), 1u);
}

TraceSet two_thread_traces() {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  // Thread 0 touches blocks 0 and 1 (addresses 0x00, 0x40).
  t0.append(0x00, MemOp::kWrite);
  t0.append(0x40, MemOp::kWrite);
  t0.append(0x80, MemOp::kRead);  // block 2, touched later by round-robin
  ThreadTrace t1(1, 1);
  // Thread 1 touches block 2 first in its stream, and block 1 second.
  t1.append(0x80, MemOp::kWrite);
  t1.append(0x40, MemOp::kRead);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  return ts;
}

TEST(FirstTouch, RoundRobinInterleaveDecidesOwnership) {
  const TraceSet ts = two_thread_traces();
  FirstTouchPlacement p(ts, 4);
  // Round 0: t0 touches block 0, t1 touches block 2.
  // Round 1: t0 touches block 1, t1 touches block 1 (already owned by t0).
  EXPECT_EQ(p.home_of_block(0), 0);
  EXPECT_EQ(p.home_of_block(2), 1);
  EXPECT_EQ(p.home_of_block(1), 0);
  EXPECT_EQ(p.assigned_blocks(), 3u);
}

TEST(FirstTouch, Deterministic) {
  const TraceSet ts = two_thread_traces();
  FirstTouchPlacement a(ts, 4);
  FirstTouchPlacement b(ts, 4);
  for (Addr blk = 0; blk < 3; ++blk) {
    EXPECT_EQ(a.home_of_block(blk), b.home_of_block(blk));
  }
}

TEST(ProfileGreedy, MajorityAccessorWins) {
  TraceSet ts(64);
  ThreadTrace t0(0, 0);
  t0.append(0x40, MemOp::kRead);  // block 1 x1
  ThreadTrace t1(1, 1);
  t1.append(0x40, MemOp::kRead);  // block 1 x3
  t1.append(0x40, MemOp::kRead);
  t1.append(0x40, MemOp::kWrite);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  ProfileGreedyPlacement p(ts, 4);
  EXPECT_EQ(p.home_of_block(1), 1);
}

TEST(ProfileGreedy, TieGoesToLowerCore) {
  TraceSet ts(64);
  ThreadTrace t0(0, 2);
  t0.append(0x00, MemOp::kRead);
  ThreadTrace t1(1, 1);
  t1.append(0x00, MemOp::kRead);
  ts.add_thread(std::move(t0));
  ts.add_thread(std::move(t1));
  ProfileGreedyPlacement p(ts, 4);
  EXPECT_EQ(p.home_of_block(0), 1);  // cores 1 and 2 tie; lower id wins
}

TEST(HomeSequence, MapsEveryAccess) {
  const TraceSet ts = two_thread_traces();
  StripedPlacement p(4);
  const auto homes = home_sequence(ts.thread(0), ts, p);
  ASSERT_EQ(homes.size(), 3u);
  EXPECT_EQ(homes[0], 0);  // block 0 -> core 0
  EXPECT_EQ(homes[1], 1);  // block 1 -> core 1
  EXPECT_EQ(homes[2], 2);  // block 2 -> core 2
}

TEST(MakePlacement, FactoryKnowsAllSchemes) {
  const TraceSet ts = two_thread_traces();
  for (const char* name :
       {"striped", "hashed", "first-touch", "profile-greedy"}) {
    const auto p = make_placement(name, ts, 4);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name(), name);
  }
  EXPECT_EQ(make_placement("bogus", ts, 4), nullptr);
}

TEST(TablePlacement, BlocksPerCore) {
  TablePlacement p(3);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 2);
  const auto counts = p.blocks_per_core();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
}


// Random assign and reassign over sparse 64-bit blocks against a std::map:
// page-boundary neighbours, the last block of the address space, the
// striped fallback, assigned_blocks() (a reassign counts once) and
// blocks_per_core().
TEST(TablePlacement, MatchesMapReference) {
  constexpr std::int32_t kCores = 7;
  std::vector<Addr> blocks;
  for (const Addr page : {Addr{0}, Addr{1}, Addr{0x1234}, Addr{1} << 40,
                          ~Addr{0} >> 4}) {
    for (const Addr cell : {0, 1, 14, 15}) {
      blocks.push_back(page * 16 + cell);  // both ends of every page
    }
    blocks.push_back(page * 16 + 16);  // next page's first (last page: 0)
  }
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    blocks.push_back(rng.next_u64());
  }
  TablePlacement p(kCores);
  std::map<Addr, CoreId> ref;
  for (int step = 0; step < 4000; ++step) {
    const Addr block = blocks[rng.next_below(blocks.size())];
    const auto home = static_cast<CoreId>(rng.next_below(kCores));
    p.assign(block, home);
    ref[block] = home;
    if (step % 100 != 99) {
      continue;
    }
    for (const Addr b : blocks) {
      const auto it = ref.find(b);
      const CoreId want = it != ref.end()
                              ? it->second
                              : static_cast<CoreId>(b % kCores);
      ASSERT_EQ(p.home_of_block(b), want) << "block " << b;
    }
    ASSERT_EQ(p.assigned_blocks(), ref.size());
    std::vector<std::uint64_t> counts(kCores, 0);
    for (const auto& [b, core] : ref) {
      ++counts[static_cast<std::size_t>(core)];
    }
    ASSERT_EQ(p.blocks_per_core(), counts);
  }
  EXPECT_EQ(p.home_of_block(~Addr{0}), ref.at(~Addr{0}));
}

// FirstTouchPlacement over a generated 256-thread workload equals a
// first-touch map built here from the same round-robin interleave.
TEST(FirstTouch, MatchesMapReferenceOn256Threads) {
  const auto ts = workload::make_by_name("sharing-mix", 256, 1, 3);
  ASSERT_TRUE(ts.has_value());
  const MemoryTraceSource source(*ts);
  std::map<Addr, CoreId> ref;
  for_each_round_robin(source, nullptr,
                       [&](std::size_t t, const Access& a) -> Cycle {
                         ref.emplace(ts->block_of(a.addr),
                                     source.native_core(t));
                         return 0;
                       });
  const FirstTouchPlacement p(*ts, 256);
  ASSERT_EQ(p.assigned_blocks(), ref.size());
  std::vector<std::uint64_t> counts(256, 0);
  for (const auto& [block, home] : ref) {
    ASSERT_EQ(p.home_of_block(block), home) << "block " << block;
    ++counts[static_cast<std::size_t>(home)];
  }
  EXPECT_EQ(p.blocks_per_core(), counts);
}

}  // namespace
}  // namespace em2
