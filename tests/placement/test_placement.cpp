#include "placement/placement.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "trace/round_robin.hpp"
#include "util/rng.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

TEST(StripedPlacement, RoundRobin) {
  Placement p = Placement::striped(4);
  EXPECT_EQ(p.home_of_block(0), 0);
  EXPECT_EQ(p.home_of_block(1), 1);
  EXPECT_EQ(p.home_of_block(4), 0);
  EXPECT_EQ(p.home_of_block(7), 3);
}

TEST(HashedPlacement, InRangeAndDeterministic) {
  Placement p = Placement::hashed(16);
  Placement q = Placement::hashed(16);
  for (Addr b = 0; b < 1000; ++b) {
    const CoreId c = p.home_of_block(b);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 16);
    EXPECT_EQ(c, q.home_of_block(b));
  }
}

TEST(TablePlacement, AssignAndFallback) {
  Placement p(4);
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
  Placement p = Placement::first_touch(ts, 4);
  // Round 0: t0 touches block 0, t1 touches block 2.
  // Round 1: t0 touches block 1, t1 touches block 1 (already owned by t0).
  EXPECT_EQ(p.home_of_block(0), 0);
  EXPECT_EQ(p.home_of_block(2), 1);
  EXPECT_EQ(p.home_of_block(1), 0);
  EXPECT_EQ(p.assigned_blocks(), 3u);
}

TEST(FirstTouch, Deterministic) {
  const TraceSet ts = two_thread_traces();
  Placement a = Placement::first_touch(ts, 4);
  Placement b = Placement::first_touch(ts, 4);
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
  Placement p = Placement::profile_greedy(ts, 4);
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
  Placement p = Placement::profile_greedy(ts, 4);
  EXPECT_EQ(p.home_of_block(0), 1);  // cores 1 and 2 tie; lower id wins
}

TEST(HomeSequence, MapsEveryAccess) {
  const TraceSet ts = two_thread_traces();
  Placement p = Placement::striped(4);
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
  Placement p(3);
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
  Placement p(kCores);
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

// First-touch placement over a generated 256-thread workload equals a
// first-touch map built here from the same round-robin interleave.
TEST(FirstTouch, MatchesMapReferenceOn256Threads) {
  const auto ts = workload::make_by_name("sharing-mix", 256, 1, 3);
  ASSERT_TRUE(ts.has_value());
  const TraceSource& source = *ts;
  std::map<Addr, CoreId> ref;
  for_each_round_robin(source, nullptr,
                       [&](std::size_t t, const Access& a) -> Cycle {
                         ref.emplace(ts->block_of(a.addr),
                                     source.native_core(t));
                         return 0;
                       });
  const Placement p = Placement::first_touch(*ts, 256);
  ASSERT_EQ(p.assigned_blocks(), ref.size());
  std::vector<std::uint64_t> counts(256, 0);
  for (const auto& [block, home] : ref) {
    ASSERT_EQ(p.home_of_block(block), home) << "block " << block;
    ++counts[static_cast<std::size_t>(home)];
  }
  EXPECT_EQ(p.blocks_per_core(), counts);
}

// Every scheme's home for a fixed trace and block list: the touched
// blocks 0..39, the never-touched 40..47 (fallback homes) and three high
// blocks up to ~0 >> 6.  The expected homes were recorded from the
// scheme-per-subclass implementation, so any refactor of Placement must
// reproduce them exactly.
TEST(Placement, HomesArePinned) {
  TraceSet ts(64);
  const CoreId natives[] = {5, 2, 6, 0};
  for (int t = 0; t < 4; ++t) {
    ThreadTrace thread(t, natives[t]);
    for (int i = 0; i < 32; ++i) {
      const auto block = static_cast<Addr>((i * i * 3 + t * 17) % 40);
      thread.append(block * 64 + 8 * static_cast<Addr>(t),
                    i % 3 == 0 ? MemOp::kWrite : MemOp::kRead);
    }
    ts.add_thread(std::move(thread));
  }
  std::vector<Addr> blocks;
  for (Addr b = 0; b < 48; ++b) {
    blocks.push_back(b);
  }
  blocks.push_back(Addr{1} << 40);
  blocks.push_back((~Addr{0} >> 6) - 1);
  blocks.push_back(~Addr{0} >> 6);
  const std::map<std::string, std::vector<CoreId>> pinned = {
      {"striped",
       {0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2,
        3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5,
        6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 2, 0, 1}},
      {"hashed",
       {2, 2, 4, 2, 6, 3, 3, 2, 4, 2, 1, 1, 1, 2, 5, 0, 2,
        6, 1, 1, 5, 2, 2, 0, 3, 0, 3, 6, 4, 0, 4, 2, 5, 3,
        1, 6, 6, 1, 2, 6, 4, 6, 5, 1, 0, 2, 3, 5, 5, 0, 2}},
      {"first-touch",
       {5, 1, 6, 5, 2, 2, 6, 0, 5, 2, 3, 0, 5, 6, 0, 1, 2,
        2, 4, 0, 2, 6, 6, 0, 3, 2, 6, 5, 5, 2, 2, 0, 5, 5,
        6, 5, 1, 6, 0, 0, 5, 6, 0, 1, 2, 3, 4, 5, 2, 0, 1}},
      {"profile-greedy",
       {5, 1, 6, 5, 2, 2, 0, 0, 5, 2, 3, 0, 2, 6, 0, 1, 2,
        2, 4, 0, 2, 6, 6, 0, 3, 2, 6, 5, 5, 2, 2, 0, 5, 5,
        6, 5, 1, 6, 0, 0, 5, 6, 0, 1, 2, 3, 4, 5, 2, 0, 1}},
  };
  for (const auto& [scheme, homes] : pinned) {
    const auto p = make_placement(scheme, ts, 7);
    ASSERT_NE(p, nullptr) << scheme;
    ASSERT_EQ(homes.size(), blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(p->home_of_block(blocks[i]), homes[i])
          << scheme << " block " << blocks[i];
    }
  }
}

}  // namespace
}  // namespace em2
