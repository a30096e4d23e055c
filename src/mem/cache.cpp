#include "mem/cache.hpp"

#include <bit>

#include "util/assert.hpp"

namespace em2 {

Cache::Cache(const CacheParams& params) : params_(params) {
  EM2_ASSERT(std::has_single_bit(params.line_bytes),
             "line size must be a power of two");
  EM2_ASSERT(params.ways >= 1, "cache must have at least one way");
  EM2_ASSERT(params.size_bytes % (params.ways * params.line_bytes) == 0,
             "cache size must be divisible by ways * line size");
  num_sets_ = params.size_bytes / (params.ways * params.line_bytes);
  EM2_ASSERT(num_sets_ >= 1, "cache must have at least one set");
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(params.line_bytes));
  const std::size_t slots =
      static_cast<std::size_t>(num_sets_) * params.ways;
  TagLine empty;
  for (Addr& t : empty.tag) {
    t = kInvalidTag;
  }
  tags_.assign((slots + 7) / 8, empty);
  stamps_.assign(slots, 0);
  state_.assign(slots, 0);
  dirty_.assign(slots, 0);
}

std::optional<std::uint8_t> Cache::state_of(Addr line_addr) const noexcept {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return std::nullopt;
  }
  return state_[slot];
}

CacheAccessResult Cache::access(Addr byte_addr, MemOp op,
                                std::uint8_t fill_state) {
  const Addr line_addr = line_of(byte_addr);
  const std::size_t slot = find(line_addr);
  if (slot != kAbsent) {
    ++hits_;
    touch_at(slot);
    if (op == MemOp::kWrite) {
      dirty_[slot] = 1;
    }
    CacheAccessResult r;
    r.hit = true;
    return r;
  }
  ++misses_;
  CacheAccessResult r = fill(line_addr, fill_state, op == MemOp::kWrite);
  r.hit = false;
  return r;
}

bool Cache::touch(Addr line_addr) {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return false;
  }
  touch_at(slot);
  return true;
}

CacheAccessResult Cache::fill(Addr line_addr, std::uint8_t state,
                              bool dirty) {
  CacheAccessResult r;
  if (const std::size_t slot = find(line_addr); slot != kAbsent) {
    // Re-fill of a resident line: refresh state/dirtiness only.
    state_[slot] = state;
    dirty_[slot] = dirty_[slot] | static_cast<std::uint8_t>(dirty);
    touch_at(slot);
    return r;
  }
  // True LRU: the lowest stamp, ties to the lower way.  Invalid ways
  // stamp 0 and valid stamps are distinct and nonzero, so this is the
  // first invalid way if there is one, else the least recently used.
  const std::size_t base = set_index(line_addr) * params_.ways;
  std::size_t victim = base;
  for (std::size_t s = base + 1; s < base + params_.ways; ++s) {
    if (stamps_[s] < stamps_[victim]) {
      victim = s;
    }
  }
  if (stamps_[victim] != 0) {
    r.evicted = true;
    r.victim_line = tag(victim);
    r.victim_state = state_[victim];
    r.writeback = dirty_[victim] != 0;
    ++evictions_;
    if (r.writeback) {
      ++writebacks_;
    }
  } else {
    ++valid_lines_;
  }
  tag(victim) = line_addr;
  dirty_[victim] = static_cast<std::uint8_t>(dirty);
  state_[victim] = state;
  touch_at(victim);
  return r;
}

bool Cache::set_state(Addr line_addr, std::uint8_t state) {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return false;
  }
  state_[slot] = state;
  return true;
}

std::optional<bool> Cache::invalidate(Addr line_addr) {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return std::nullopt;
  }
  const bool dirty = dirty_[slot] != 0;
  tag(slot) = kInvalidTag;
  stamps_[slot] = 0;
  dirty_[slot] = 0;
  state_[slot] = 0;
  --valid_lines_;
  return dirty;
}

}  // namespace em2
