#include "mem/cache.hpp"

#include <bit>

#include "util/assert.hpp"

namespace em2 {

Cache::Cache(const CacheParams& params) : params_(params) {
  EM2_ASSERT(std::has_single_bit(params.line_bytes),
             "line size must be a power of two");
  EM2_ASSERT(params.ways >= 1, "cache must have at least one way");
  EM2_ASSERT(params.ways < kInvalidRank,
             "LRU ranks are bytes: at most 254 ways");
  EM2_ASSERT(params.size_bytes % (params.ways * params.line_bytes) == 0,
             "cache size must be divisible by ways * line size");
  num_sets_ = params.size_bytes / (params.ways * params.line_bytes);
  EM2_ASSERT(num_sets_ >= 1, "cache must have at least one set");
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(params.line_bytes));
  layout(sizeof(std::uint32_t));
}

void Cache::layout(std::size_t tag_bytes) {
  const std::size_t ways = params_.ways;
  const std::size_t stride = std::bit_ceil(ways * (tag_bytes + 3));
  set_shift_ = static_cast<std::uint32_t>(std::countr_zero(stride));
  set_mask_ = stride - 1;
  rank_offset_ = ways * tag_bytes;
  state_offset_ = rank_offset_ + ways;
  dirty_offset_ = state_offset_ + ways;
  const std::size_t total = stride * num_sets_;
  lines_.assign((total + sizeof(HostLine) - 1) / sizeof(HostLine),
                HostLine{});
  for (std::size_t base = 0; base < total; base += stride) {
    // Narrow invalid ways carry kNarrowInvalidTag, so a narrow lookup
    // compares tags only; a wide lookup also checks the rank.
    std::memset(bytes() + base, 0xFF, rank_offset_ + ways);
  }
}

void Cache::widen() {
  const std::vector<HostLine> old = lines_;
  const auto* from = reinterpret_cast<const unsigned char*>(old.data());
  const std::size_t old_shift = set_shift_;
  const std::size_t old_rank = rank_offset_;
  const std::size_t ways = params_.ways;
  layout(sizeof(Addr));
  wide_ = true;
  for (std::size_t set = 0; set < num_sets_; ++set) {
    const unsigned char* src = from + (set << old_shift);
    const std::size_t base = set << set_shift_;
    for (std::size_t w = 0; w < ways; ++w) {
      std::uint32_t t;
      std::memcpy(&t, src + w * sizeof t, sizeof t);
      set_tag_at(base + w, t);
    }
    // Ranks, states and dirty bytes are three runs of `ways` bytes.
    std::memcpy(bytes() + base + rank_offset_, src + old_rank, 3 * ways);
  }
}

std::size_t Cache::find_wide(std::size_t base,
                             Addr quotient) const noexcept {
  const unsigned char* rank = bytes() + base + rank_offset_;
  for (std::size_t w = 0; w < params_.ways; ++w) {
    if (tag_at(base + w) == quotient && rank[w] != kInvalidRank) {
      return base + w;
    }
  }
  return kAbsent;
}

Addr Cache::tag_at(std::size_t slot) const noexcept {
  const std::size_t way = slot & set_mask_;
  const unsigned char* set = bytes() + (slot & ~set_mask_);
  if (wide_) {
    Addr t;
    std::memcpy(&t, set + way * sizeof t, sizeof t);
    return t;
  }
  std::uint32_t t;
  std::memcpy(&t, set + way * sizeof t, sizeof t);
  return t;
}

void Cache::set_tag_at(std::size_t slot, Addr quotient) noexcept {
  const std::size_t way = slot & set_mask_;
  unsigned char* set = bytes() + (slot & ~set_mask_);
  if (wide_) {
    std::memcpy(set + way * sizeof quotient, &quotient, sizeof quotient);
    return;
  }
  const auto t = static_cast<std::uint32_t>(quotient);
  std::memcpy(set + way * sizeof t, &t, sizeof t);
}

std::optional<std::uint8_t> Cache::state_of(Addr line_addr) const noexcept {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return std::nullopt;
  }
  return state_at(slot);
}

CacheAccessResult Cache::access(Addr byte_addr, MemOp op,
                                std::uint8_t fill_state) {
  const Addr line_addr = line_of(byte_addr);
  const std::size_t slot = find(line_addr);
  if (slot != kAbsent) {
    ++hits_;
    touch_at(slot);
    if (op == MemOp::kWrite) {
      bytes()[slot + dirty_offset_] = 1;
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
    bytes()[slot + state_offset_] = state;
    bytes()[slot + dirty_offset_] |= static_cast<unsigned char>(dirty);
    touch_at(slot);
    return r;
  }
  const Addr quotient = line_addr / num_sets_;
  if (!wide_ && quotient >= kNarrowInvalidTag) {
    widen();
  }
  const auto set = static_cast<std::size_t>(line_addr - quotient * num_sets_);
  const std::size_t base = set << set_shift_;
  unsigned char* rank = bytes() + base + rank_offset_;
  // The first invalid way, else the least recently used: when the set
  // is full exactly one way ranks ways-1, and when it is not no valid way
  // does, so the first way ranked at least ways-1 is the victim.
  const std::size_t ways = params_.ways;
  std::size_t way = 0;
  while (rank[way] < ways - 1) {
    ++way;
  }
  const std::size_t victim = base + way;
  if (rank[way] != kInvalidRank) {
    r.evicted = true;
    r.victim_line = tag_at(victim) * num_sets_ + set;
    r.victim_state = bytes()[victim + state_offset_];
    r.writeback = bytes()[victim + dirty_offset_] != 0;
    ++evictions_;
    if (r.writeback) {
      ++writebacks_;
    }
  } else {
    ++valid_lines_;
  }
  set_tag_at(victim, quotient);
  bytes()[victim + dirty_offset_] = static_cast<unsigned char>(dirty);
  bytes()[victim + state_offset_] = state;
  promote(rank, way);
  return r;
}

bool Cache::set_state(Addr line_addr, std::uint8_t state) {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return false;
  }
  bytes()[slot + state_offset_] = state;
  return true;
}

std::optional<bool> Cache::invalidate(Addr line_addr) {
  const std::size_t slot = find(line_addr);
  if (slot == kAbsent) {
    return std::nullopt;
  }
  unsigned char* rank = bytes() + (slot & ~set_mask_) + rank_offset_;
  const std::size_t way = slot & set_mask_;
  const unsigned char r = rank[way];
  // Every valid way older than the removed one moves up a rank, so the
  // ranks of the valid ways stay 0..n-1.
  for (std::uint32_t w = 0; w < params_.ways; ++w) {
    if (rank[w] > r && rank[w] != kInvalidRank) {
      --rank[w];
    }
  }
  rank[way] = kInvalidRank;
  const bool dirty = bytes()[slot + dirty_offset_] != 0;
  set_tag_at(slot, kNarrowInvalidTag);  // a narrow lookup skips it
  bytes()[slot + dirty_offset_] = 0;
  bytes()[slot + state_offset_] = 0;
  --valid_lines_;
  return dirty;
}

}  // namespace em2
