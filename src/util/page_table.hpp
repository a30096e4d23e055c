// Flat page storage for sparse per-address state on simulation hot paths.
//
// Execution-driven runs keep three per-address tables on the
// per-instruction path: functional memory, the consistency witness's
// latest-store values, and the per-block home cache.  Each maps a sparse
// 64-bit key space onto a footprint with heavy reuse.  PageTable groups
// neighbouring cells into one page, keeps every page in one dense array,
// and finds a page through an open-addressing (linear probing) array of
// page numbers: a lookup is one multiply, one slot read and one page
// read in the common case — no node allocation per key, unlike
// std::unordered_map.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace em2 {

/// Maps 64-bit page keys to default-constructed `Cells` values.  Pages
/// live in one dense array in insertion order, each next to its key, and
/// are never removed; a slot holds only a page number, so the slot array
/// stays small enough to sit in cache even when pages do not.
template <typename Cells>
class PageTable {
 public:
  PageTable() { grow(); }

  /// The cells stored under `key`, or nullptr if never inserted.
  const Cells* find(std::uint64_t key) const noexcept {
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      if (slots_[i] == kEmpty) {
        return nullptr;
      }
      const Page& p = pages_[slots_[i]];
      if (p.key == key) {
        return &p.cells;
      }
    }
  }

  /// The cells stored under `key`, inserted default-constructed if absent.
  /// The reference is valid until the next insertion.
  Cells& get(std::uint64_t key) {
    if ((pages_.size() + 1) * 2 > slots_.size()) {
      grow();
    }
    std::size_t i = slot_of(key);
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (pages_[slots_[i]].key == key) {
        return pages_[slots_[i]].cells;
      }
    }
    slots_[i] = static_cast<std::uint32_t>(pages_.size());
    return pages_.emplace_back(Page{key, Cells{}}).cells;
  }

  /// Visits every page in insertion order as f(key, cells).
  template <typename F>
  void for_each(F&& f) const {
    for (const Page& p : pages_) {
      f(p.key, p.cells);
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  struct Page {
    std::uint64_t key;
    Cells cells;
  };

  std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Doubles the slot array (the first call sizes it at 64 slots) and
  /// re-inserts every page number; the pages themselves do not move.
  void grow() {
    const std::size_t cap = slots_.empty() ? 64 : slots_.size() * 2;
    EM2_ASSERT(cap / 2 < kEmpty, "page table full");
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      std::size_t i = slot_of(pages_[p].key);
      while (slots_[i] != kEmpty) {
        i = (i + 1) & mask_;
      }
      slots_[i] = static_cast<std::uint32_t>(p);
    }
  }

  std::vector<std::uint32_t> slots_;  // page number, or kEmpty
  std::vector<Page> pages_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// Word-cell addressing shared by functional memory and the consistency
/// witness: a 16-byte page of 4 four-byte cells.  The page key keeps the
/// address's low two bits, so every distinct byte address — aligned or
/// not — owns its own cell.  Pages stay this small because sparse
/// programs touch one word per cache line: 64-byte pages of 16 cells made
/// the 1024-core bench_exec_scaling run 13% slower than hash maps did,
/// while 16-byte pages left the dense exec runs just as fast.
inline constexpr std::size_t kWordsPerPage = 4;
inline constexpr unsigned kPageShift = 4;  // log2 of the page's bytes
inline constexpr std::uint64_t word_page_key(Addr a) noexcept {
  return ((a >> kPageShift) << 2) | (a & 3);
}
inline constexpr std::size_t word_cell(Addr a) noexcept {
  return static_cast<std::size_t>((a >> 2) & (kWordsPerPage - 1));
}
/// Inverse of (word_page_key, word_cell).
inline constexpr Addr word_addr(std::uint64_t key, std::size_t cell) noexcept {
  return ((key >> 2) << kPageShift) | (static_cast<Addr>(cell) << 2) |
         (key & 3);
}

}  // namespace em2
