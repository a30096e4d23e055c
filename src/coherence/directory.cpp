#include "coherence/directory.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace em2 {
namespace {

std::uint8_t to_byte(MsiState s) { return static_cast<std::uint8_t>(s); }
MsiState from_byte(std::uint8_t b) { return static_cast<MsiState>(b); }

/// Virtual network a directory-protocol message travels on: data and
/// acknowledgements are responses (kMemReply); everything that solicits
/// work at the receiver is a request (kMemRequest).  Mirrors the
/// request/reply split that keeps the fabric deadlock-free.
int message_vnet(Counter c) {
  switch (c) {
    case Counter::kDataOwner:
    case Counter::kDataHome:
    case Counter::kWbDowngrade:
    case Counter::kPutM:
    case Counter::kInvAck:
    case Counter::kUpgradeAck:
      return vnet::kMemReply;
    default:
      return vnet::kMemRequest;
  }
}

}  // namespace

DirectoryCC::DirectoryCC(const Mesh& mesh, const CostModel& cost,
                         const DirCcParams& params,
                         const Placement& placement)
    : mesh_(mesh), cost_(cost), params_(params), placement_(placement) {
  EM2_ASSERT(std::has_single_bit(params.private_cache.line_bytes),
             "line size must be a power of two");
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(params.private_cache.line_bytes));
  caches_.reserve(static_cast<std::size_t>(mesh_.num_cores()));
  for (CoreId c = 0; c < mesh_.num_cores(); ++c) {
    caches_.emplace_back(params.private_cache);
  }
  mask_words_ = (static_cast<std::size_t>(mesh_.num_cores()) + 63) / 64;
}

DirectoryCC::DirEntry& DirectoryCC::dir_entry(Addr line) {
  DirEntry& e = directory_.get(line);
  if (e.mask == kNoMask) {
    e.mask = static_cast<std::uint32_t>(mask_pool_.size());
    EM2_ASSERT(e.mask == mask_pool_.size(), "sharer-mask pool full");
    mask_pool_.resize(mask_pool_.size() + mask_words_, 0);
  }
  return e;
}

// The mask is exactly the set of caches holding the line, so a core
// joins only on its own miss and leaves only on its own eviction.
void DirectoryCC::add_sharer(DirEntry& e, CoreId c) noexcept {
  std::uint64_t& word = mask_of(e)[c >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (c & 63);
  EM2_ASSERT((word & bit) == 0, "a missing core was already a sharer");
  word |= bit;
  ++e.sharers;
}

void DirectoryCC::remove_sharer(DirEntry& e, CoreId c) noexcept {
  std::uint64_t& word = mask_of(e)[c >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (c & 63);
  EM2_ASSERT((word & bit) != 0, "an evicting core was not a sharer");
  word &= ~bit;
  --e.sharers;
}

void DirectoryCC::make_only_sharer(DirEntry& e, CoreId c) noexcept {
  std::uint64_t* mask = mask_of(e);
  std::fill(mask, mask + mask_words_, 0);
  mask[c >> 6] = std::uint64_t{1} << (c & 63);
  e.sharers = 1;
}

Cost DirectoryCC::send(CoreId src, CoreId dst, std::uint64_t payload_bits,
                       Counter counter) {
  counters_.inc(counter);
  counters_.inc(Counter::kMessages);
  traffic_bits_ += payload_bits + cost_.params().header_bits;
  const int vn = message_vnet(counter);
  if (traffic_sink_ != nullptr && src != dst) {
    traffic_sink_->on_packet(src, dst, vn, payload_bits);
  }
  return cost_.message(src, dst, payload_bits, vn);
}

void DirectoryCC::handle_eviction(CoreId core,
                                  const CacheAccessResult& fill) {
  if (!fill.evicted) {
    return;
  }
  const Addr victim = fill.victim_line;
  const CoreId home = placement_.home_of_block(victim);
  DirEntry& entry = dir_entry(victim);
  const MsiState vstate = from_byte(fill.victim_state);
  const std::uint64_t line_bits =
      static_cast<std::uint64_t>(params_.private_cache.line_bytes) * 8;

  if (vstate == MsiState::kModified) {
    // PutM: write the dirty line back to the home.
    send(core, home, line_bits, Counter::kPutM);
    EM2_ASSERT(entry.owner == core && entry.sharers == 1,
               "M line had other sharers in the directory");
    remove_sharer(entry, core);
    entry.state = MsiState::kInvalid;
    entry.owner = kNoCore;
  } else if (vstate == MsiState::kShared) {
    // PutS: notify the directory so its sharer vector stays precise.
    send(core, home, 0, Counter::kPutS);
    remove_sharer(entry, core);
    if (entry.sharers == 0) {
      entry.state = MsiState::kInvalid;
    }
  }
}

CcAccessResult DirectoryCC::access(CoreId core, Addr addr, MemOp op) {
  EM2_ASSERT(core >= 0 && core < mesh_.num_cores(),
             "access from a core outside the mesh");
  counters_.inc(Counter::kAccesses);
  CcAccessResult result;
  const Addr line = line_of(addr);
  Cache& cache = caches_[static_cast<std::size_t>(core)];
  const std::size_t slot = cache.find(line);
  const MsiState cstate = slot == Cache::kAbsent
                              ? MsiState::kInvalid
                              : from_byte(cache.state_at(slot));
  const std::uint64_t line_bits =
      static_cast<std::uint64_t>(params_.private_cache.line_bytes) * 8;
  const std::uint64_t addr_bits = cost_.params().addr_bits;

  Cost latency = params_.hit_latency;

  if (op == MemOp::kRead && cstate != MsiState::kInvalid) {
    // Read hit in S or M.
    cache.touch_at(slot);
    counters_.inc(Counter::kHits);
    result.hit = true;
  } else if (op == MemOp::kWrite && cstate == MsiState::kModified) {
    // Write hit in M.
    cache.touch_at(slot);
    counters_.inc(Counter::kHits);
    result.hit = true;
  } else if (op == MemOp::kRead) {
    // Read miss: GetS to the directory.  Only misses consult the home.
    counters_.inc(Counter::kMisses);
    const CoreId home = placement_.home_of_block(line);
    latency += send(core, home, addr_bits, Counter::kGetS) + params_.dir_latency;
    DirEntry& entry = dir_entry(line);
    if (entry.state == MsiState::kModified) {
      // Forward to the owner; owner sends data to the requester and a
      // downgrade copy to the home.  Critical path: home->owner->requester.
      EM2_ASSERT(entry.sharers == 1, "M line must have one owner");
      const CoreId owner = entry.owner;
      latency += send(home, owner, addr_bits, Counter::kFwdGetS);
      const Cost to_req = send(owner, core, line_bits, Counter::kDataOwner);
      send(owner, home, line_bits, Counter::kWbDowngrade);
      latency += to_req;
      caches_[static_cast<std::size_t>(owner)].set_state(
          line, to_byte(MsiState::kShared));
      entry.state = MsiState::kShared;
      entry.owner = kNoCore;  // the former owner stays a sharer
    } else {
      if (entry.state == MsiState::kInvalid) {
        latency += params_.dram_latency;  // home fetches from memory
        counters_.inc(Counter::kDramFills);
        entry.state = MsiState::kShared;
      }
      latency += send(home, core, line_bits, Counter::kDataHome);
    }
    add_sharer(entry, core);
    const CacheAccessResult fill =
        cache.fill(line, to_byte(MsiState::kShared), false);
    handle_eviction(core, fill);
  } else {
    // Write miss or upgrade: GetM/Upgrade to the directory.
    counters_.inc(Counter::kMisses);
    const CoreId home = placement_.home_of_block(line);
    const bool upgrade = cstate == MsiState::kShared;
    latency += send(core, home, addr_bits, upgrade ? Counter::kUpgrade : Counter::kGetM) +
               params_.dir_latency;
    DirEntry& entry = dir_entry(line);
    if (entry.state == MsiState::kModified) {
      EM2_ASSERT(entry.sharers == 1, "M line must have one owner");
      const CoreId owner = entry.owner;
      latency += send(home, owner, addr_bits, Counter::kFwdGetM);
      latency += send(owner, core, line_bits, Counter::kDataOwner);
      caches_[static_cast<std::size_t>(owner)].invalidate(line);
    } else {
      // Invalidate all sharers (other than the requester) in core order;
      // acks return to the requester in parallel — the critical path is
      // the slowest one.
      Cost worst_inv = 0;
      const std::uint64_t* mask = mask_of(entry);
      for (std::size_t w = 0; w < mask_words_; ++w) {
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          const auto sharer =
              static_cast<CoreId>(w * 64 + std::countr_zero(bits));
          if (sharer == core) {
            continue;
          }
          const Cost inv = send(home, sharer, addr_bits, Counter::kInv);
          const Cost ack = send(sharer, core, 0, Counter::kInvAck);
          caches_[static_cast<std::size_t>(sharer)].invalidate(line);
          worst_inv = std::max(worst_inv, inv + ack);
        }
      }
      latency += worst_inv;
      if (entry.state == MsiState::kInvalid) {
        latency += params_.dram_latency;
        counters_.inc(Counter::kDramFills);
      }
      if (!upgrade) {
        latency += send(home, core, line_bits, Counter::kDataHome);
      } else {
        latency += send(home, core, 0, Counter::kUpgradeAck);
      }
    }
    entry.state = MsiState::kModified;
    entry.owner = core;
    make_only_sharer(entry, core);
    const CacheAccessResult fill =
        cache.fill(line, to_byte(MsiState::kModified), true);
    handle_eviction(core, fill);
  }

  result.latency = latency;
  total_latency_ += latency;
  return result;
}

double DirectoryCC::replication_factor() const {
  const std::uint64_t valid = total_valid_lines();
  const std::uint64_t distinct = distinct_resident_lines();
  return distinct == 0 ? 1.0
                       : static_cast<double>(valid) /
                             static_cast<double>(distinct);
}

std::uint64_t DirectoryCC::total_valid_lines() const {
  std::uint64_t total = 0;
  for (const Cache& c : caches_) {
    total += c.valid_lines();
  }
  return total;
}

std::uint64_t DirectoryCC::distinct_resident_lines() const {
  std::uint64_t distinct = 0;
  directory_.for_each([&](std::uint64_t, const DirEntry& e) {
    distinct += e.state != MsiState::kInvalid && e.sharers != 0 ? 1 : 0;
  });
  return distinct;
}

std::uint64_t DirectoryCC::directory_bits() const {
  std::uint64_t tracked = 0;
  directory_.for_each([&](std::uint64_t, const DirEntry& e) {
    tracked += e.state != MsiState::kInvalid ? 1 : 0;
  });
  return tracked * (2 + static_cast<std::uint64_t>(mesh_.num_cores()));
}

}  // namespace em2
