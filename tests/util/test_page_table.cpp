// Flat page storage against std::unordered_map oracles: PageTable itself,
// FunctionalMemory and the ConsistencyChecker witness, under seeded random
// stores and loads over an address pool that includes 0, unaligned bytes,
// 0x8000'0000, addresses at and above 2^32, and the top of the 64-bit
// space.  Enough distinct pages are touched to force many index growths.
#include "util/page_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arch/reg_isa.hpp"
#include "em2/consistency.hpp"
#include "util/rng.hpp"

namespace em2 {
namespace {

constexpr Addr kTop = ~Addr{0};

/// Edge addresses plus clustered (page-sharing) and scattered ones.
std::vector<Addr> address_pool(Rng& rng) {
  std::vector<Addr> pool = {0,           1,           2,
                            3,           4,           0x3C,
                            0x3F,        0x40,        0x8000'0000ull,
                            0x8000'0001ull, 0x7FFF'FFFFull, 0xFFFF'FFFFull,
                            0x1'0000'0000ull, 0x1'0000'0005ull,
                            0xDEAD'BEEF'0000ull, kTop,  kTop - 1,
                            kTop - 3,    kTop - 63,   kTop - 64};
  for (int i = 0; i < 3000; ++i) {
    pool.push_back(0x10'0000 + rng.next_u64() % 0x4000);  // dense cluster
    pool.push_back(rng.next_u64());                        // anywhere
    pool.push_back((rng.next_u64() % 50'000) * 64);        // one per page
  }
  return pool;
}

TEST(PageTable, MatchesMapOracleAcrossGrowth) {
  Rng rng(11);
  PageTable<std::array<std::uint32_t, 4>> table;
  std::unordered_map<std::uint64_t, std::array<std::uint32_t, 4>> oracle;
  std::vector<std::uint64_t> keys = {0, 1, kTop, kTop - 1, 0x8000'0000ull};
  for (int i = 0; i < 20'000; ++i) {
    keys.push_back(i % 2 == 0 ? rng.next_u64() : rng.next_u64() % 5000);
  }
  for (const std::uint64_t key : keys) {
    const auto cell = static_cast<std::size_t>(key % 4);
    const auto value = static_cast<std::uint32_t>(rng.next_u64());
    table.get(key)[cell] = value;
    oracle[key][cell] = value;
  }
  for (const auto& [key, cells] : oracle) {
    const auto* found = table.find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, cells) << key;
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t key = rng.next_u64() | (std::uint64_t{1} << 63);
    if (oracle.count(key) == 0) {
      EXPECT_EQ(table.find(key), nullptr) << key;
    }
  }
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, const auto& cells) {
    ++visited;
    EXPECT_EQ(oracle.at(key), cells);
  });
  EXPECT_EQ(visited, oracle.size());
}

TEST(PageTable, WordCellAddressingIsABijection) {
  for (const Addr a : {Addr{0}, Addr{1}, Addr{0x43}, Addr{0x8000'0002ull},
                       kTop, kTop - 60}) {
    EXPECT_EQ(word_addr(word_page_key(a), word_cell(a)), a) << a;
  }
  // Neighbouring bytes of one word land in different pages; neighbouring
  // words share a page.
  EXPECT_NE(word_page_key(0x100), word_page_key(0x101));
  EXPECT_EQ(word_page_key(0x100), word_page_key(0x104));
  EXPECT_NE(word_cell(0x100), word_cell(0x104));
  for (Addr a = 0x200; a < 0x200 + 4 * kWordsPerPage; a += 4) {
    EXPECT_EQ(word_page_key(a), word_page_key(0x200)) << a;
  }
  EXPECT_NE(word_page_key(0x200 + 4 * kWordsPerPage), word_page_key(0x200));
}

TEST(FunctionalMemoryStorage, MatchesMapOracle) {
  Rng rng(2024);
  const std::vector<Addr> pool = address_pool(rng);
  FunctionalMemory mem;
  std::unordered_map<Addr, std::uint32_t> oracle;
  for (int op = 0; op < 60'000; ++op) {
    const Addr a = pool[rng.next_u64() % pool.size()];
    if (rng.next_u64() % 3 == 0) {
      const auto value = static_cast<std::uint32_t>(rng.next_u64());
      mem.store(a, value);
      oracle[a] = value;
    } else {
      const auto it = oracle.find(a);
      ASSERT_EQ(mem.load(a), it == oracle.end() ? 0u : it->second) << a;
    }
  }
  EXPECT_EQ(mem.words_written(), oracle.size());
  for (const Addr a : pool) {
    const auto it = oracle.find(a);
    ASSERT_EQ(mem.load(a), it == oracle.end() ? 0u : it->second) << a;
  }
}

TEST(FunctionalMemoryStorage, RewritesDoNotRecountWords) {
  FunctionalMemory mem;
  mem.store(0x100, 1);
  mem.store(0x101, 2);  // unaligned: its own cell, same word
  mem.store(0x100, 3);
  mem.store(0x104, 0);  // writing zero still counts as written
  EXPECT_EQ(mem.words_written(), 3u);
  EXPECT_EQ(mem.load(0x100), 3u);
  EXPECT_EQ(mem.load(0x101), 2u);
  EXPECT_EQ(mem.load(0x102), 0u);
}

TEST(ConsistencyCheckerStorage, FlagsExactlyTheWrongLoads) {
  Rng rng(77);
  const std::vector<Addr> pool = address_pool(rng);
  ConsistencyChecker checker;
  std::unordered_map<Addr, std::uint32_t> oracle;
  std::size_t expected_violations = 0;
  for (int op = 0; op < 60'000; ++op) {
    const Addr a = pool[rng.next_u64() % pool.size()];
    if (rng.next_u64() % 3 == 0) {
      const auto value = static_cast<std::uint32_t>(rng.next_u64());
      checker.on_store(0, a, value, 5, 5);
      oracle[a] = value;
      continue;
    }
    const auto it = oracle.find(a);
    std::uint32_t value = it == oracle.end() ? 0u : it->second;
    if (rng.next_u64() % 5 == 0) {
      value += 1 + static_cast<std::uint32_t>(rng.next_u64() % 7);
      ++expected_violations;
    }
    checker.on_load(1, a, value, 5, 5);
    ASSERT_EQ(checker.violations().size(), expected_violations) << a;
  }
  EXPECT_GT(expected_violations, 0u);
  EXPECT_EQ(checker.checked_accesses(), 60'000u);
}

}  // namespace
}  // namespace em2
