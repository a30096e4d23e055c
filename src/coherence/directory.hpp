// Directory-based MSI cache coherence — the baseline EM2 is positioned
// against.
//
// The paper (Section 1/2): "ensuring coherence among private caches is an
// expensive proposition ... directory sizes needed in cache-coherence
// protocols must equal a significant portion of the combined size of the
// per-core caches"; EM2 "can potentially outperform traditional
// directory-based cache coherence (CC) by avoiding the data replication
// and loss of effective cache capacity of CC and by enabling data access
// through a one-way migration protocol."
//
// This is a transaction-level (message-accurate, unconcurrent) MSI
// protocol: each access runs its full coherence transaction to completion
// before the next begins, which is exactly the fidelity needed to count
// protocol messages, traffic bits, replication, and directory state — the
// quantities the paper's claims are about.
//
// Storage mirrors the hardware being modelled.  Each core's private cache
// packs a simulated set into one 64-byte host line (mem/cache.hpp).  The
// directory is full-map: a flat PageTable of entries keyed by line, each
// with its MSI state, an explicit owner while in M, a sharer count and a
// P-bit sharer mask (ceil(P/64) words) drawn from one pool, so a
// membership test is one bit and no entry allocates on its own.  A write
// invalidates the sharers by walking the mask's set bits, i.e. in
// ascending core order, as a full-map directory's fan-out does; the
// invalidation packets handed to a TrafficSink follow that order.
//
// Scheduler note: under CC, data moves and threads do not — every thread
// executes pinned to its native core for the whole run.  The execution
// engine's event-driven scheduler therefore builds each core's resident
// queue once at startup and never receives a ThreadMoveObserver callback
// for this architecture (there is nothing to observe).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geom/mesh.hpp"
#include "mem/cache.hpp"
#include "noc/cost_model.hpp"
#include "noc/traffic.hpp"
#include "placement/placement.hpp"
#include "util/counters.hpp"
#include "util/page_table.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace em2 {

/// MSI stability states as stored in private-cache line state bytes.
enum class MsiState : std::uint8_t {
  kInvalid = 0,
  kShared = 1,
  kModified = 2,
};

/// Directory-CC configuration.  The private cache defaults to the paper's
/// combined per-core capacity (16KB L1 + 64KB L2) as a single level —
/// transaction-level modelling does not need the L1/L2 split, only the
/// capacity and line size.
struct DirCcParams {
  CacheParams private_cache{80 * 1024, 8, 64};
  /// Local hit latency (cycles) — charged on every access.
  std::uint32_t hit_latency = 2;
  /// Home-node directory/L2 lookup latency.
  std::uint32_t dir_latency = 8;
  /// Off-chip fill latency when the home has no copy on chip.
  std::uint32_t dram_latency = 100;
};

/// Result of one CC access.
struct CcAccessResult {
  bool hit = false;
  /// End-to-end latency including protocol round trips (cycles).
  Cost latency = 0;
  /// Protocol messages this access generated.
  std::uint32_t messages = 0;
};

/// The distributed directory + private caches of all cores.
class DirectoryCC {
 public:
  /// `placement` maps lines to their home (directory) cores and must use
  /// the same block size as the caches' line size.  `mesh`, `cost`, and
  /// `placement` are held by reference and must outlive the directory.
  DirectoryCC(const Mesh& mesh, const CostModel& cost,
              const DirCcParams& params, const Placement& placement);

  /// Runs one access's full MSI transaction.
  CcAccessResult access(CoreId core, Addr addr, MemOp op);

  const FastCounters& counters() const noexcept { return counters_; }
  std::uint64_t traffic_bits() const noexcept { return traffic_bits_; }
  Cost total_latency() const noexcept { return total_latency_; }

  /// Registers `sink` (nullable) to receive every protocol message as a
  /// packet (requests on vnet::kMemRequest, data/acks on vnet::kMemReply;
  /// src == dst messages generate no packet) — the contention calibration
  /// pass's capture point.  Must outlive the directory or be unregistered.
  void set_traffic_sink(TrafficSink* sink) noexcept {
    traffic_sink_ = sink;
  }

  /// Replication factor: mean copies per cached line right now.
  double replication_factor() const;
  /// Valid lines summed over all private caches.
  std::uint64_t total_valid_lines() const;
  /// Distinct lines resident anywhere (the effective capacity EM2 keeps
  /// and CC erodes).
  std::uint64_t distinct_resident_lines() const;
  /// Directory storage in bits: per tracked line, 2 state bits + a full
  /// P-bit sharer vector (the "significant portion of the combined size"
  /// the paper cites).
  std::uint64_t directory_bits() const;

 private:
  static constexpr std::uint32_t kNoMask = ~std::uint32_t{0};
  struct DirEntry {
    MsiState state = MsiState::kInvalid;
    CoreId owner = kNoCore;  ///< the one sharer while in M
    std::uint32_t sharers = 0;  ///< set bits in the mask
    std::uint32_t mask = kNoMask;  ///< first word in mask_pool_
  };

  Addr line_of(Addr addr) const noexcept {
    return addr >> line_shift_;
  }
  /// The directory entry of `line`, created Invalid with an empty mask on
  /// first use.  Valid until the next dir_entry call.
  DirEntry& dir_entry(Addr line);
  std::uint64_t* mask_of(const DirEntry& e) noexcept {
    return mask_pool_.data() + e.mask;
  }
  void add_sharer(DirEntry& e, CoreId c) noexcept;
  void remove_sharer(DirEntry& e, CoreId c) noexcept;
  /// Empties the sharer set and makes `c` its only member.
  void make_only_sharer(DirEntry& e, CoreId c) noexcept;
  /// One protocol message src -> dst carrying `payload_bits`; returns its
  /// latency and does the traffic/count accounting.
  Cost send(CoreId src, CoreId dst, std::uint64_t payload_bits,
            Counter counter);
  /// Handles a victim evicted by a private-cache fill.
  void handle_eviction(CoreId core, const CacheAccessResult& fill);

  const Mesh& mesh_;
  const CostModel& cost_;
  DirCcParams params_;
  const Placement& placement_;
  std::uint32_t line_shift_;
  std::vector<Cache> caches_;
  std::size_t mask_words_;  // ceil(cores / 64)
  PageTable<DirEntry> directory_;
  std::vector<std::uint64_t> mask_pool_;
  FastCounters counters_;
  std::uint64_t traffic_bits_ = 0;
  Cost total_latency_ = 0;
  TrafficSink* traffic_sink_ = nullptr;
};

}  // namespace em2
