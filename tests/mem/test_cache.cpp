#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace em2 {
namespace {

CacheParams tiny_cache() {
  // 4 sets x 2 ways x 64B lines = 512B.
  return CacheParams{512, 2, 64};
}

TEST(Cache, Geometry) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.num_sets(), 4u);
  EXPECT_EQ(c.ways(), 2u);
  EXPECT_EQ(c.capacity_lines(), 8u);
  EXPECT_EQ(c.line_of(0), 0u);
  EXPECT_EQ(c.line_of(63), 0u);
  EXPECT_EQ(c.line_of(64), 1u);
}

TEST(Cache, MissThenHit) {
  Cache c(tiny_cache());
  const auto r1 = c.access(0x100, MemOp::kRead);
  EXPECT_FALSE(r1.hit);
  const auto r2 = c.access(0x104, MemOp::kRead);  // same line
  EXPECT_TRUE(r2.hit);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction) {
  Cache c(tiny_cache());
  // Set 0 holds lines 0, 4, 8, ... (4 sets).  Fill both ways then insert
  // a third line: the least-recently-used must go.
  c.access(0 * 64, MemOp::kRead);   // line 0
  c.access(4 * 64, MemOp::kRead);   // line 4, same set
  c.access(0 * 64, MemOp::kRead);   // touch line 0 (now MRU)
  const auto r = c.access(8 * 64, MemOp::kRead);  // evicts line 4
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 4u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(4));
  EXPECT_TRUE(c.contains(8));
}

TEST(Cache, DirtyEvictionRequestsWriteback) {
  Cache c(tiny_cache());
  c.access(0 * 64, MemOp::kWrite);  // dirty line 0
  c.access(4 * 64, MemOp::kRead);
  const auto r = c.access(8 * 64, MemOp::kRead);  // evicts dirty line 0
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 0u);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(tiny_cache());
  c.access(0 * 64, MemOp::kRead);
  c.access(4 * 64, MemOp::kRead);
  const auto r = c.access(8 * 64, MemOp::kRead);
  EXPECT_TRUE(r.evicted);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitDirties) {
  Cache c(tiny_cache());
  c.access(0, MemOp::kRead);
  c.access(0, MemOp::kWrite);  // hit, dirties
  c.access(4 * 64, MemOp::kRead);
  const auto r = c.access(8 * 64, MemOp::kRead);  // victim = line 0
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, InvalidateReturnsDirtiness) {
  Cache c(tiny_cache());
  c.access(0, MemOp::kWrite);
  c.access(64, MemOp::kRead);
  const auto dirty = c.invalidate(0);
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(*dirty);
  const auto clean = c.invalidate(1);
  ASSERT_TRUE(clean.has_value());
  EXPECT_FALSE(*clean);
  EXPECT_FALSE(c.invalidate(99).has_value());
  EXPECT_EQ(c.valid_lines(), 0u);
}

TEST(Cache, StateByteStorage) {
  Cache c(tiny_cache());
  c.fill(5, 2, false);
  EXPECT_EQ(c.state_of(5), std::optional<std::uint8_t>{2});
  EXPECT_TRUE(c.set_state(5, 1));
  EXPECT_EQ(c.state_of(5), std::optional<std::uint8_t>{1});
  EXPECT_FALSE(c.set_state(99, 1));
  EXPECT_EQ(c.state_of(99), std::nullopt);
}

TEST(Cache, FillOfResidentLineRefreshes) {
  Cache c(tiny_cache());
  c.fill(3, 1, false);
  const auto r = c.fill(3, 2, true);
  EXPECT_FALSE(r.evicted);
  EXPECT_EQ(c.state_of(3), std::optional<std::uint8_t>{2});
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(Cache, TouchUpdatesLruWithoutAllocation) {
  Cache c(tiny_cache());
  EXPECT_FALSE(c.touch(7));
  c.fill(0, 0, false);   // set 0
  c.fill(4, 0, false);   // set 0
  EXPECT_TRUE(c.touch(0));  // line 0 becomes MRU
  const auto r = c.fill(8, 0, false);
  EXPECT_EQ(r.victim_line, 4u);
}

TEST(Cache, ValidLinesTracksOccupancy) {
  Cache c(tiny_cache());
  EXPECT_EQ(c.valid_lines(), 0u);
  for (int i = 0; i < 16; ++i) {
    c.access(static_cast<Addr>(i) * 64, MemOp::kRead);
  }
  EXPECT_EQ(c.valid_lines(), 8u);  // full: 8 lines despite 16 fills
}

// Property: hits + misses == accesses, and occupancy never exceeds
// capacity, across random access streams and geometries.
struct CacheGeometry {
  std::uint32_t size;
  std::uint32_t ways;
};
class CacheProperty : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheProperty, ConservationAndBounds) {
  const auto [size, ways] = GetParam();
  Cache c(CacheParams{size, ways, 64});
  Rng rng(99);
  const int kAccesses = 5000;
  for (int i = 0; i < kAccesses; ++i) {
    const Addr addr = rng.next_below(256) * 64 + rng.next_below(64);
    c.access(addr, rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead);
    EXPECT_LE(c.valid_lines(), c.capacity_lines());
  }
  EXPECT_EQ(c.hits() + c.misses(), static_cast<std::uint64_t>(kAccesses));
  EXPECT_LE(c.writebacks(), c.evictions());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(CacheGeometry{1024, 1}, CacheGeometry{1024, 2},
                      CacheGeometry{2048, 4}, CacheGeometry{4096, 8},
                      CacheGeometry{16 * 1024, 4}));

// Reference model for the differential test: array of structs, an
// explicit valid flag per way, true LRU (the first invalid way, else the
// oldest stamp, ties to the lower way).
class RefCache {
 public:
  explicit RefCache(const CacheParams& p)
      : ways_(p.ways),
        sets_(p.size_bytes / (p.ways * p.line_bytes)),
        lines_(static_cast<std::size_t>(sets_) * ways_) {}

  std::optional<std::uint8_t> state_of(Addr line) const {
    const Way* w = find(line);
    return w == nullptr ? std::nullopt : std::optional(w->state);
  }
  bool touch(Addr line) {
    Way* w = find(line);
    if (w != nullptr) {
      w->stamp = ++tick_;
    }
    return w != nullptr;
  }
  CacheAccessResult access(Addr line, MemOp op, std::uint8_t fill_state) {
    if (Way* w = find(line)) {
      ++hits;
      w->stamp = ++tick_;
      w->dirty = w->dirty || op == MemOp::kWrite;
      CacheAccessResult r;
      r.hit = true;
      return r;
    }
    ++misses;
    return fill(line, fill_state, op == MemOp::kWrite);
  }
  CacheAccessResult fill(Addr line, std::uint8_t state, bool dirty) {
    CacheAccessResult r;
    if (Way* w = find(line)) {
      w->state = state;
      w->dirty = w->dirty || dirty;
      w->stamp = ++tick_;
      return r;
    }
    Way* victim = nullptr;
    for (Way* w = set_begin(line); w != set_begin(line) + ways_; ++w) {
      if (!w->valid) {
        victim = w;
        break;
      }
      if (victim == nullptr || w->stamp < victim->stamp) {
        victim = w;
      }
    }
    if (victim->valid) {
      r.evicted = true;
      r.victim_line = victim->line;
      r.victim_state = victim->state;
      r.writeback = victim->dirty;
      ++evictions;
      writebacks += victim->dirty ? 1 : 0;
    } else {
      ++valid;
    }
    *victim = Way{true, line, dirty, state, ++tick_};
    return r;
  }
  bool set_state(Addr line, std::uint8_t state) {
    Way* w = find(line);
    if (w != nullptr) {
      w->state = state;
    }
    return w != nullptr;
  }
  std::optional<bool> invalidate(Addr line) {
    Way* w = find(line);
    if (w == nullptr) {
      return std::nullopt;
    }
    const bool dirty = w->dirty;
    *w = Way{};
    --valid;
    return dirty;
  }

  std::uint64_t valid = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

 private:
  struct Way {
    bool valid = false;
    Addr line = 0;
    bool dirty = false;
    std::uint8_t state = 0;
    std::uint64_t stamp = 0;
  };
  Way* set_begin(Addr line) {
    return &lines_[static_cast<std::size_t>(line % sets_) * ways_];
  }
  Way* find(Addr line) {
    for (Way* w = set_begin(line); w != set_begin(line) + ways_; ++w) {
      if (w->valid && w->line == line) {
        return w;
      }
    }
    return nullptr;
  }
  const Way* find(Addr line) const {
    return const_cast<RefCache*>(this)->find(line);
  }

  std::uint32_t ways_;
  std::uint32_t sets_;
  std::vector<Way> lines_;
  std::uint64_t tick_ = 0;
};

void expect_same(const CacheAccessResult& got, const CacheAccessResult& want,
                 int step) {
  EXPECT_EQ(got.hit, want.hit) << "step " << step;
  EXPECT_EQ(got.evicted, want.evicted) << "step " << step;
  EXPECT_EQ(got.writeback, want.writeback) << "step " << step;
  EXPECT_EQ(got.victim_line, want.victim_line) << "step " << step;
  EXPECT_EQ(got.victim_state, want.victim_state) << "step " << step;
}

struct DiffCase {
  const char* name;
  CacheParams params;
};
// Keeps the registered test names free of pointer and padding bytes.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }
class CacheDifferential : public ::testing::TestWithParam<DiffCase> {};

// Seeded random fill/touch/access/set_state/invalidate sequences: every
// result, every state_of and the occupancy and lifetime counters match
// the reference model after every step.
TEST_P(CacheDifferential, MatchesReferenceModel) {
  const CacheParams params = GetParam().params;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Cache c(params);
    RefCache ref(params);
    Rng rng(seed);
    // Twice the capacity in lines, half from the bottom of the line space
    // and half from its top, so sets overflow and hits are common.
    const Addr max_line = c.line_of(~Addr{0});
    std::vector<Addr> pool;
    for (std::uint64_t i = 0; i < c.capacity_lines(); ++i) {
      pool.push_back(i * 7);
      pool.push_back(max_line - i * 3);
    }
    for (int step = 0; step < 20000; ++step) {
      const Addr line = pool[rng.next_below(pool.size())];
      const auto state = static_cast<std::uint8_t>(rng.next_below(4));
      const bool write = rng.next_bool(0.4);
      switch (rng.next_below(6)) {
        case 0:
        case 1: {
          const Addr byte =
              line * c.line_bytes() + rng.next_below(c.line_bytes());
          expect_same(c.access(byte, write ? MemOp::kWrite : MemOp::kRead,
                               state),
                      ref.access(line, write ? MemOp::kWrite : MemOp::kRead,
                                 state),
                      step);
          break;
        }
        case 2:
          expect_same(c.fill(line, state, write), ref.fill(line, state, write),
                      step);
          break;
        case 3:
          EXPECT_EQ(c.touch(line), ref.touch(line)) << "step " << step;
          break;
        case 4:
          EXPECT_EQ(c.set_state(line, state), ref.set_state(line, state))
              << "step " << step;
          break;
        default:
          EXPECT_EQ(c.invalidate(line), ref.invalidate(line))
              << "step " << step;
          break;
      }
      const Addr probe = pool[rng.next_below(pool.size())];
      ASSERT_EQ(c.state_of(probe), ref.state_of(probe))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(c.contains(probe), ref.state_of(probe).has_value());
      ASSERT_EQ(c.valid_lines(), ref.valid) << "step " << step;
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_EQ(c.evictions(), ref.evictions);
    EXPECT_EQ(c.writebacks(), ref.writebacks);
    EXPECT_GT(c.evictions(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(
        // The directory-CC private cache: 80 KB, 8 ways, 160 sets.
        DiffCase{"Cc160Sets", CacheParams{80 * 1024, 8, 64}},
        DiffCase{"OneWay", CacheParams{1024, 1, 64}},
        DiffCase{"OneSet", CacheParams{512, 8, 64}},
        DiffCase{"SixteenWays", CacheParams{4096, 16, 64}},
        DiffCase{"OneByteLines", CacheParams{64, 4, 1}}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

// With 1-byte lines every 64-bit value is a line address, ~0 included:
// the encoding of an invalid way must not make line ~0 look resident,
// and the line must fill, hit and evict like any other.
TEST(Cache, TopLineOfTheAddressSpaceIsNotAnInvalidWay) {
  for (const std::uint32_t ways : {1u, 4u}) {
    Cache c(CacheParams{ways, ways, 1});  // one set
    const Addr top = ~Addr{0};
    EXPECT_FALSE(c.contains(top)) << "fresh cache reports line ~0 resident";
    EXPECT_EQ(c.state_of(top), std::nullopt);
    EXPECT_FALSE(c.touch(top));
    EXPECT_FALSE(c.set_state(top, 1));
    EXPECT_FALSE(c.invalidate(top).has_value());
    EXPECT_EQ(c.valid_lines(), 0u);

    EXPECT_FALSE(c.access(top, MemOp::kWrite, 2).hit);
    EXPECT_EQ(c.valid_lines(), 1u);
    EXPECT_EQ(c.state_of(top), std::optional<std::uint8_t>{2});
    EXPECT_TRUE(c.access(top, MemOp::kRead).hit);
    for (Addr other = 0; other + 1 < ways; ++other) {
      EXPECT_FALSE(c.fill(other, 0, false).evicted);
    }
    EXPECT_EQ(c.valid_lines(), ways);
    const CacheAccessResult r = c.fill(top - 1, 0, false);
    EXPECT_TRUE(r.evicted);
    EXPECT_EQ(r.victim_line, top);  // the least recently used line
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_state, 2);
    EXPECT_FALSE(c.contains(top));
    EXPECT_EQ(c.valid_lines(), ways);
  }
}

// Tags hold line / num_sets in 32 bits until a quotient of 2^32 - 1 or
// more arrives.  The largest narrow quotient must never match an invalid
// way, and the first wide one re-lays the cache out keeping every
// resident line's state, dirtiness and LRU order.
TEST(Cache, NarrowToWideTagBoundary) {
  Cache c(CacheParams{3 * 64, 3, 64});  // one set: line == quotient
  const Addr top_narrow = 0xFFFFFFFEu;
  const Addr first_wide = 0xFFFFFFFFu;
  EXPECT_FALSE(c.contains(top_narrow));
  EXPECT_FALSE(c.contains(first_wide));
  c.fill(5, 1, false);
  EXPECT_TRUE(c.invalidate(5).has_value());
  EXPECT_FALSE(c.contains(top_narrow)) << "an invalidated way matched";
  EXPECT_FALSE(c.fill(top_narrow, 2, true).evicted);
  EXPECT_EQ(c.state_of(top_narrow), std::optional<std::uint8_t>{2});
  EXPECT_FALSE(c.fill(7, 3, false).evicted);
  EXPECT_TRUE(c.touch(top_narrow));  // LRU order: 7, then top_narrow

  EXPECT_FALSE(c.fill(first_wide, 1, false).evicted);  // widens
  EXPECT_EQ(c.valid_lines(), 3u);
  EXPECT_EQ(c.state_of(top_narrow), std::optional<std::uint8_t>{2});
  EXPECT_EQ(c.state_of(7), std::optional<std::uint8_t>{3});
  EXPECT_EQ(c.state_of(first_wide), std::optional<std::uint8_t>{1});
  const CacheAccessResult r = c.fill(~Addr{0} >> 6, 0, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 7u);
  const CacheAccessResult r2 = c.fill(9, 0, false);
  EXPECT_EQ(r2.victim_line, top_narrow);
  EXPECT_TRUE(r2.writeback);
}

}  // namespace
}  // namespace em2
