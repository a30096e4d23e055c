// Set-associative cache with true-LRU replacement.
//
// The cache is line-addressed and *stateful but dataless*: it tracks
// presence, dirtiness, and an opaque per-line protocol state byte (used by
// the directory-coherence baseline for MSI states), but not data values —
// simulated data lives in the functional memory of the execution engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace em2 {

/// Geometry of one cache level.  The line size must be a power of two;
/// the set count (size / (ways * line)) may be any positive integer.
struct CacheParams {
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 64;
};

/// Result of a lookup-with-allocation.
struct CacheAccessResult {
  bool hit = false;
  /// Valid line evicted to make room (only on allocating misses).
  bool evicted = false;
  /// The evicted line was dirty and needs a writeback.
  bool writeback = false;
  /// Line address (byte address >> line shift) of the victim.
  Addr victim_line = 0;
  /// Protocol state of the victim at eviction.
  std::uint8_t victim_state = 0;
};

/// One level of set-associative cache.
///
/// Each simulated set is one packed block of host memory: `ways` tags,
/// then `ways` LRU rank bytes, `ways` protocol-state bytes and `ways`
/// dirty bytes.  The block's stride is a power of two, so a set never
/// straddles a 64-byte host line it does not need: an 8-way set uses 56
/// bytes of exactly one line, and a hit reads that one line.
///
/// A tag stores `line / num_sets`; the set index supplies the rest of
/// the line address.  Tags are 32 bits wide until the cache is asked to
/// fill a line whose quotient does not fit below `kNarrowInvalidTag`; the
/// cache then re-lays itself out once with 64-bit tags (the wide layout)
/// and stays wide.  A narrow cache answers "absent" for such a line
/// without looking, which is exact because it never held one.  So no two
/// lines share a tag, line ~0 with 1-byte lines included.
///
/// Ranks encode true LRU: the valid ways of a set hold ranks 0 (most
/// recently used) to n-1, and an invalid way holds kInvalidRank.  The
/// victim of a fill is the first invalid way, else the way ranked
/// ways-1 — the same choice as the oldest of distinct LRU stamps.
class Cache {
 public:
  /// The slot `find` returns for a line that is not resident.
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  explicit Cache(const CacheParams& params);

  std::uint32_t num_sets() const noexcept { return num_sets_; }
  std::uint32_t ways() const noexcept { return params_.ways; }
  std::uint32_t line_bytes() const noexcept { return params_.line_bytes; }

  /// Maps a byte address to its line address.
  Addr line_of(Addr byte_addr) const noexcept {
    return byte_addr >> line_shift_;
  }

  /// Slot of a resident line, or kAbsent.  Does not update LRU.  A slot
  /// stays valid until the next fill or invalidate of this cache.
  std::size_t find(Addr line_addr) const noexcept {
    // One divide yields both: the compiler folds / and the product.
    const Addr quotient = line_addr / num_sets_;
    const std::size_t base = static_cast<std::size_t>(
                                 line_addr - quotient * num_sets_)
                             << set_shift_;
    if (wide_) {
      return find_wide(base, quotient);
    }
    if (quotient >= kNarrowInvalidTag) {
      return kAbsent;  // only a wide cache can hold this line
    }
    const auto tag = static_cast<std::uint32_t>(quotient);
    const unsigned char* set = bytes() + base;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
      std::uint32_t t;
      std::memcpy(&t, set + w * sizeof t, sizeof t);
      if (t == tag) {
        return base + w;
      }
    }
    return kAbsent;
  }
  /// Protocol state of the resident line in `slot`.
  std::uint8_t state_at(std::size_t slot) const noexcept {
    return bytes()[slot + state_offset_];
  }
  /// Marks the resident line in `slot` most recently used.
  void touch_at(std::size_t slot) noexcept {
    unsigned char* rank = bytes() + (slot & ~set_mask_) + rank_offset_;
    promote(rank, slot & set_mask_);
  }

  /// Presence test without touching replacement state.
  bool contains(Addr line_addr) const noexcept {
    return find(line_addr) != kAbsent;
  }

  /// Protocol state of a resident line (nullopt if absent).  Does not
  /// update LRU.
  std::optional<std::uint8_t> state_of(Addr line_addr) const noexcept;

  /// Full access: on hit, updates LRU and dirtiness (writes dirty the
  /// line).  On miss, allocates the line (state = `fill_state`), evicting
  /// the LRU victim if the set is full.  This is the common
  /// "access-and-fill" path of a private cache.
  CacheAccessResult access(Addr byte_addr, MemOp op,
                           std::uint8_t fill_state = 0);

  /// Lookup that never allocates; updates LRU on hit.  Returns hit.
  bool touch(Addr line_addr);

  /// Inserts (or re-states) a line without an access, as a coherence fill
  /// does.  Returns eviction information for the victim, if any.
  CacheAccessResult fill(Addr line_addr, std::uint8_t state, bool dirty);

  /// Updates the protocol state of a resident line; returns false if the
  /// line is absent.
  bool set_state(Addr line_addr, std::uint8_t state);

  /// Removes a line (coherence invalidation).  Returns the line's dirty
  /// flag, or nullopt if it was not resident.
  std::optional<bool> invalidate(Addr line_addr);

  /// Number of currently valid lines (effective occupancy).
  std::uint64_t valid_lines() const noexcept { return valid_lines_; }
  std::uint64_t capacity_lines() const noexcept {
    return static_cast<std::uint64_t>(num_sets_) * params_.ways;
  }

  // Lifetime statistics.
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t writebacks() const noexcept { return writebacks_; }

 private:
  /// The narrow layout's tag of an invalid way; quotients at or above it
  /// need the wide layout.
  static constexpr Addr kNarrowInvalidTag = 0xFFFFFFFFu;
  static constexpr unsigned char kInvalidRank = 0xFF;
  struct alignas(64) HostLine {
    unsigned char b[64];
  };

  const unsigned char* bytes() const noexcept {
    return reinterpret_cast<const unsigned char*>(lines_.data());
  }
  unsigned char* bytes() noexcept {
    return reinterpret_cast<unsigned char*>(lines_.data());
  }
  /// Ranks every valid way that was more recent than `way` one older
  /// and makes `way` the most recent.  An invalid way (kInvalidRank)
  /// being promoted ages every valid way.
  void promote(unsigned char* rank, std::size_t way) const noexcept {
    const unsigned char r = rank[way];
    if (r == 0) {
      return;
    }
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
      rank[w] = static_cast<unsigned char>(rank[w] + (rank[w] < r ? 1 : 0));
    }
    rank[way] = 0;
  }
  /// Lays out `num_sets_` empty sets with `tag_bytes`-wide tags.
  void layout(std::size_t tag_bytes);
  /// Re-lays every set out with 64-bit tags (see the class comment).
  void widen();
  std::size_t find_wide(std::size_t base, Addr quotient) const noexcept;
  Addr tag_at(std::size_t slot) const noexcept;
  void set_tag_at(std::size_t slot, Addr quotient) noexcept;

  CacheParams params_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_;
  bool wide_ = false;
  std::uint32_t set_shift_ = 0;  // log2 of a set's stride in bytes
  std::size_t set_mask_ = 0;     // stride - 1: a slot's way bits
  std::size_t rank_offset_ = 0;  // from a set's base to its rank bytes
  std::size_t state_offset_ = 0;
  std::size_t dirty_offset_ = 0;
  std::vector<HostLine> lines_;
  std::uint64_t valid_lines_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace em2
