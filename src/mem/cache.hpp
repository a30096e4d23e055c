// Set-associative cache with true-LRU replacement.
//
// The cache is line-addressed and *stateful but dataless*: it tracks
// presence, dirtiness, and an opaque per-line protocol state byte (used by
// the directory-coherence baseline for MSI states), but not data values —
// simulated data lives in the functional memory of the execution engine.
#pragma once

#include <cstddef>
#include <cstdint>
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
/// Storage is a structure of arrays, indexed by slot = set * ways + way:
/// a tag array padded so that an 8-way set fills exactly one 64-byte
/// line, then LRU stamps, protocol-state bytes and dirty bytes.  A lookup
/// compares tags only; the other arrays are read once the slot is known.
/// A way is valid iff its stamp is nonzero: the LRU clock starts at 1, so
/// the encoding cannot alias any 64-bit line address (line ~0 with
/// 1-byte lines included).  Invalid ways keep the tag ~0 so a lookup of
/// an ordinary line never has to read their stamps.
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
    const std::size_t base = set_index(line_addr) * params_.ways;
    for (std::size_t s = base; s < base + params_.ways; ++s) {
      if (tag(s) == line_addr && stamps_[s] != 0) {
        return s;
      }
    }
    return kAbsent;
  }
  /// Protocol state of the resident line in `slot`.
  std::uint8_t state_at(std::size_t slot) const noexcept {
    return state_[slot];
  }
  /// Marks the resident line in `slot` most recently used.
  void touch_at(std::size_t slot) noexcept { stamps_[slot] = ++tick_; }

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
  static constexpr Addr kInvalidTag = ~Addr{0};
  /// Eight tags on one 64-byte line: slot s lives at [s / 8].tag[s % 8].
  struct alignas(64) TagLine {
    Addr tag[8];
  };

  Addr tag(std::size_t slot) const noexcept {
    return tags_[slot >> 3].tag[slot & 7];
  }
  Addr& tag(std::size_t slot) noexcept {
    return tags_[slot >> 3].tag[slot & 7];
  }
  // Modulo (not mask) so non-power-of-two set counts are legal: the 80KB
  // combined-capacity cache of the CC baseline has 160 sets.
  std::size_t set_index(Addr line_addr) const noexcept {
    return static_cast<std::size_t>(line_addr %
                                    static_cast<Addr>(num_sets_));
  }

  CacheParams params_;
  std::uint32_t num_sets_;
  std::uint32_t line_shift_;
  std::vector<TagLine> tags_;          // kInvalidTag in invalid ways
  std::vector<std::uint64_t> stamps_;  // LRU stamp; 0 = invalid way
  std::vector<std::uint8_t> state_;
  std::vector<std::uint8_t> dirty_;
  std::uint64_t tick_ = 0;  // LRU clock; the last stamp handed out
  std::uint64_t valid_lines_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace em2
