// The EM2 protocol engine — the paper's primary contribution.
//
// EM2 "maintains memory coherence by allowing each address to be cached in
// only one core cache (the home), and efficiently migrating execution to
// the home core whenever another core wishes to access that address."
//
// This class implements the full Figure 1 access flow at the protocol
// level:
//
//     memory access in core A
//       -> address cacheable in A?   yes: access memory, continue
//       -> no: migrate thread to home core
//            -> # threads exceeded?  yes: migrate another thread (a guest)
//                                         back to its native core
//            -> access memory, continue
//
// Deadlock freedom (after Cho et al., NOCS 2011): every thread has a
// reserved *native context* at its origin core that is never occupied by
// any other thread, and evicted threads travel to it on a separate virtual
// network (vnet::kMigrationNative) so eviction traffic can always sink.
// Because each address is only ever accessed at its home core, "threads
// never disagree about the contents of memory locations so sequential
// consistency is trivially ensured."
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/mesh.hpp"
#include "mem/hierarchy.hpp"
#include "noc/cost_model.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "util/assert.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace em2 {

class FaultInjector;  // sim/faults.hpp; held by nullable pointer only

/// How a full guest-context file chooses its eviction victim.
enum class EvictionPolicy : std::uint8_t {
  kOldestGuest = 0,  ///< FIFO by arrival time at the core
  kRandom = 1,       ///< uniformly random occupied guest slot
};

/// Protocol-engine configuration.
struct Em2Params {
  /// Guest contexts per core ("each core may be capable of multiplexing
  /// execution among several contexts"); native contexts are reserved
  /// per-thread on top of these.
  std::int32_t guest_contexts = 2;
  EvictionPolicy eviction = EvictionPolicy::kOldestGuest;
  /// Model per-core cache hierarchies (hit/miss latency and DRAM traffic)
  /// in addition to network costs.  The paper's analytical model turns
  /// this off; the Figure 2 configuration turns it on.
  bool model_caches = false;
  CacheParams l1{16 * 1024, 4, 64};   // 16KB L1, paper Figure 2
  CacheParams l2{64 * 1024, 8, 64};   // 64KB L2, paper Figure 2
  HierarchyLatency latency{};
  std::uint64_t rng_seed = 1;
};

/// Per-access outcome (one Figure-1 traversal).
struct AccessOutcome {
  /// Served at the thread's current core with no network traffic.
  bool local = false;
  /// The thread migrated to the home core for this access.
  bool migrated = false;
  /// The migration displaced a guest thread at the destination.
  bool caused_eviction = false;
  /// The displaced thread (kNoThread if none) — execution-driven
  /// simulators use this to restall the victim.
  ThreadId evicted_thread = kNoThread;
  /// Network cycles experienced by the accessing thread (its migration).
  Cost thread_cost = 0;
  /// Network cycles experienced by the displaced thread, if any.
  Cost eviction_cost = 0;
  /// Memory latency at the serving core (0 unless model_caches).
  std::uint32_t memory_latency = 0;
};

/// Observer of thread location changes.  The execution-driven scheduler
/// registers one so per-core resident queues are maintained in O(1) at the
/// moment a thread arrives or departs, instead of being rediscovered by
/// scanning every thread each cycle.
///
/// Contract: `on_thread_moved(t, from, to)` fires exactly once per
/// location change — once for every migration (the moving thread) and once
/// for every eviction (the displaced guest travelling to its native core)
/// — after `location(t)` already reports `to`, and with `from != to`.
/// Remote accesses (EM2-RA) never move a thread and never notify.  The
/// callback runs on the protocol hot path: it must be O(1)-ish and must
/// not re-enter the machine.
class ThreadMoveObserver {
 public:
  virtual ~ThreadMoveObserver() = default;
  virtual void on_thread_moved(ThreadId t, CoreId from, CoreId to) = 0;
};

/// The EM2 protocol engine.  Trace-driven: the caller supplies each
/// access's home core (from a Placement); the engine tracks thread
/// locations, guest occupancy, evictions, costs, and virtual-network
/// traffic.
class Em2Machine {
 public:
  /// `native_core[t]` gives thread t's origin core (and reserved native
  /// context).  Threads start at their native cores.  `mesh` and `cost`
  /// are held by reference (sweeps construct thousands of machines over
  /// one topology) and must outlive the machine.
  Em2Machine(const Mesh& mesh, const CostModel& cost, const Em2Params& params,
             std::vector<CoreId> native_core);
  /// HybridMachine instances are owned and destroyed through
  /// Em2Machine pointers (ExecSystem, benches); the destructor is the
  /// one member that must stay virtual — every hot-path call remains
  /// devirtualized (sealed dispatch, no virtual calls per access).
  virtual ~Em2Machine() = default;

  /// Executes one memory access for thread `t` whose address is homed at
  /// `home`.  `addr` is used only for cache modelling.  Force-inlined:
  /// measured to fall out of GCC's -O2 inlining budget inside the EM2-RA
  /// policy specializations, costing a call per access.
  EM2_ALWAYS_INLINE AccessOutcome access(ThreadId t, CoreId home, MemOp op,
                                         Addr addr);

  CoreId location(ThreadId t) const noexcept {
    return location_[static_cast<std::size_t>(t)];
  }
  std::size_t num_threads() const noexcept { return native_.size(); }
  const Mesh& mesh() const noexcept { return mesh_; }
  CoreId native(ThreadId t) const noexcept {
    return native_[static_cast<std::size_t>(t)];
  }
  std::int32_t guests_at(CoreId core) const noexcept {
    return std::popcount(guest_mask_[static_cast<std::size_t>(core)]);
  }

  const FastCounters& counters() const noexcept { return counters_; }
  /// Bits moved per virtual network (contexts on the migration vnets) — a
  /// first-order traffic/power proxy.
  std::uint64_t vnet_bits(int vn) const noexcept {
    return vnet_bits_[static_cast<std::size_t>(vn)];
  }
  /// Total network cycles experienced by accessing threads.
  Cost total_thread_cost() const noexcept { return total_thread_cost_; }
  /// Total network cycles experienced by evicted threads.
  Cost total_eviction_cost() const noexcept { return total_eviction_cost_; }
  Cost thread_cost(ThreadId t) const noexcept {
    return per_thread_cost_[static_cast<std::size_t>(t)];
  }

  /// Aggregated cache statistics (zeros unless model_caches).
  struct CacheTotals {
    std::uint64_t l1_hits = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t dram_fills = 0;
    std::uint64_t dram_writebacks = 0;
  };
  CacheTotals cache_totals() const;

  const CostModel& cost_model() const noexcept { return cost_; }

  /// Registers `obs` (nullable) to be notified of every thread location
  /// change (migrations and evictions); see ThreadMoveObserver.  The
  /// observer must outlive the machine or be unregistered first.
  void set_move_observer(ThreadMoveObserver* obs) noexcept {
    move_observer_ = obs;
  }

  /// Registers `sink` (nullable) to receive every packet the protocol
  /// would inject (migrations and evictions; the hybrid subclass adds the
  /// remote request/reply pairs) — the contention calibration pass's
  /// capture point.  The sink must outlive the machine or be unregistered
  /// first.
  void set_traffic_sink(TrafficSink* sink) noexcept {
    traffic_sink_ = sink;
  }

  /// Registers `faults` (nullable) as this run's fault injector.  Null —
  /// the default — keeps every path bit-identical to the fault-free
  /// build.  The injector must outlive the machine.
  void set_fault_injector(FaultInjector* faults) noexcept {
    faults_ = faults;
  }

  /// What an exhausted migration retry budget falls back to.
  enum class FaultFallback : std::uint8_t {
    kStall = 0,  ///< pure EM2: wait out the outage, then migrate anyway
    kDegrade,    ///< EM2-RA: give up on migrating, serve remotely instead
  };

  /// One thread driven off a permanently failed core.
  struct Evacuation {
    ThreadId thread = kNoThread;
    /// Network cycles the evacuation cost the thread (exec engines
    /// re-stall the thread by this much).
    Cost cost = 0;
  };

  /// Permanently fails `dead`: marks it failed in the injector, renatives
  /// every thread whose reserved context lived there to the remapped
  /// core, and evacuates every resident thread to its (possibly
  /// remapped) native reserved context.  Returns the evacuated threads
  /// with their costs.  Requires a registered fault injector.
  std::vector<Evacuation> fail_core(CoreId dead);

  /// Always-cheap invariant check: every thread is resident exactly once,
  /// guest bookkeeping matches thread locations, and no thread occupies a
  /// failed core.  O(threads + cores).
  bool verify_thread_conservation() const;

 protected:
  /// Draws and prices the transient-fault fate of thread `t`'s migration
  /// `from` -> `dest` BEFORE the migration executes.  Adds the cost of
  /// every lost attempt (wire time + exponential backoff) to `penalty`
  /// and updates resilience accounting.  Returns false iff the retry
  /// budget is exhausted and `fallback` is kDegrade — the caller must
  /// then serve the access remotely instead of migrating.  Under kStall
  /// the outage is waited out (one extra max-backoff charge) and the
  /// migration always proceeds.  Out of line: faulted migrations are the
  /// rare leg.
  EM2_NOINLINE bool apply_migration_faults(ThreadId t, CoreId from,
                                           CoreId dest,
                                           FaultFallback fallback,
                                           Cost& penalty);

  /// Same for one remote-access round trip `at` <-> `home` (EM2-RA).
  /// Remote accesses have no fallback: after exhaustion the final
  /// retransmission is forced through.  Returns the recovery penalty;
  /// also accounts the retransmitted request/reply wire bits.
  EM2_NOINLINE Cost apply_remote_faults(ThreadId t, CoreId at, CoreId home,
                                        MemOp op, std::uint64_t req_bits,
                                        std::uint64_t rep_bits);

  /// Moves thread `t` to `dest`, handling native-vs-guest context
  /// occupancy and any eviction chain.  Returns (thread cost, eviction
  /// cost).  Exposed to the EM2-RA subclassing machinery.
  EM2_ALWAYS_INLINE std::pair<Cost, Cost> migrate_thread(ThreadId t,
                                                         CoreId dest);

  /// Thread displaced by the most recent migrate_thread (kNoThread if
  /// none); cleared at the start of each migration.
  ThreadId last_evicted() const noexcept { return last_evicted_; }

  /// Serves the memory access at `core` through its cache hierarchy (if
  /// modelled); returns the latency.  Inline guard so the common
  /// cache-less configuration pays a single predictable branch instead of
  /// an out-of-line call per access.
  std::uint32_t serve_memory(CoreId core, Addr addr, MemOp op) {
    if (!params_.model_caches) {
      return 0;
    }
    return serve_memory_cached(core, addr, op);
  }

  void account_thread_cost(ThreadId t, Cost c) {
    per_thread_cost_[static_cast<std::size_t>(t)] += c;
    total_thread_cost_ += c;
  }

  void add_vnet_bits(int vn, std::uint64_t bits) {
    vnet_bits_[static_cast<std::size_t>(vn)] += bits;
  }

  FastCounters counters_;
  TrafficSink* traffic_sink_ = nullptr;
  FaultInjector* faults_ = nullptr;

 private:
  /// The modelled-cache leg of serve_memory (the wrapper checked
  /// model_caches already).
  std::uint32_t serve_memory_cached(CoreId core, Addr addr, MemOp op);
  /// The full-slot-file leg of arrive(): picks the victim, evicts it to
  /// its native core, and returns (slot freed, eviction cost).
  /// Deliberately out of line — evictions are a sub-10%-of-accesses event
  /// and inlining the victim scan + accounting into every access loop
  /// pushes the hot body past the front-end's fast-fetch window.
  EM2_NOINLINE std::pair<std::size_t, Cost> evict_for_arrival(
      CoreId dest, ThreadId* slots, std::uint64_t* stamps);
  /// Removes `t` from its guest slot at `at` (caller checked non-native).
  EM2_ALWAYS_INLINE void leave_guest_slot(ThreadId t, CoreId at);
  /// Installs `t` in a guest slot at `dest` (caller checked non-native);
  /// may evict.  Returns the eviction cost.
  EM2_ALWAYS_INLINE Cost arrive(ThreadId t, CoreId dest);

  /// First slot of `core`'s inline guest-context file.
  std::size_t slot_base(CoreId core) const noexcept {
    return static_cast<std::size_t>(core) * guest_capacity_;
  }

  const Mesh& mesh_;
  const CostModel& cost_;
  Em2Params params_;
  std::vector<CoreId> native_;
  std::vector<CoreId> location_;
  /// Guest occupancy: fixed-capacity inline slot files, guest_capacity_
  /// slots per core packed contiguously.  Occupancy is a per-core bitmask
  /// and arrival order lives in per-slot sequence stamps, so joining and
  /// leaving a slot file are branch-free (no search, no compaction shift)
  /// while FIFO eviction still finds the oldest guest exactly.  A thread
  /// at its native core does NOT occupy a guest slot.  Capacity is capped
  /// at 64 by the mask width (real cores multiplex a handful of contexts).
  std::size_t guest_capacity_ = 0;
  std::uint64_t full_mask_ = 0;
  std::uint64_t arrival_seq_ = 0;
  std::vector<ThreadId> guest_slots_;
  std::vector<std::uint64_t> guest_stamp_;
  std::vector<std::uint64_t> guest_mask_;
  /// guest_pos_[t]: t's slot index at its current core; valid only while
  /// t is a guest (i.e., away from its native core).
  std::vector<std::uint8_t> guest_pos_;
  std::vector<CacheHierarchy> caches_;
  std::vector<Cost> per_thread_cost_;
  std::array<std::uint64_t, vnet::kNumVnets> vnet_bits_{};
  Cost total_thread_cost_ = 0;
  Cost total_eviction_cost_ = 0;
  ThreadId last_evicted_ = kNoThread;
  ThreadMoveObserver* move_observer_ = nullptr;
  Rng rng_;
};


// Hot-path bodies are defined inline below the class: Em2Machine::access
// runs tens of millions of times per second from the trace loops, the
// execution engine, and the benches, so every caller must be able to
// inline it (and the migrate/arrive helpers it tail-calls) without
// relying on link-time optimization.

inline AccessOutcome Em2Machine::access(ThreadId t, CoreId home, MemOp op,
                                 Addr addr) {
  EM2_ASSERT(t >= 0 && static_cast<std::size_t>(t) < native_.size(),
             "unknown thread");
  EM2_ASSERT(home >= 0 && home < mesh_.num_cores(),
             "home core outside the mesh");
  AccessOutcome out;
  counters_.inc(Counter::kAccesses);
  // kReads and kWrites are adjacent in MemOp order: branchless dispatch.
  counters_.inc(static_cast<Counter>(
      static_cast<std::uint8_t>(Counter::kReads) +
      static_cast<std::uint8_t>(op)));

  const CoreId at = location_[static_cast<std::size_t>(t)];
  if (at == home) {
    // Figure 1, left branch: cacheable here — access memory and continue.
    out.local = true;
    counters_.inc(Counter::kAccessesLocal);
    if (params_.model_caches) {
      out.memory_latency = serve_memory(home, addr, op);
    }
    return out;
  }
  // Figure 1, right branch: migrate to the home core.  Pure EM2 has no
  // remote-access fallback, so exhausted retries stall the outage out and
  // migrate anyway (kStall always proceeds).
  Cost fault_penalty = 0;
  if (faults_ != nullptr) {
    apply_migration_faults(t, at, home, FaultFallback::kStall,
                           fault_penalty);
  }
  const auto [thread_cost, eviction_cost] = migrate_thread(t, home);
  out.migrated = true;
  out.thread_cost = thread_cost + fault_penalty;
  out.eviction_cost = eviction_cost;
  out.caused_eviction = last_evicted_ != kNoThread;
  out.evicted_thread = last_evicted_;
  account_thread_cost(t, out.thread_cost);
  // The access itself always executes at the home core: the single-home
  // invariant from which sequential consistency follows.
  EM2_ASSERT(location_[static_cast<std::size_t>(t)] == home,
             "EM2 invariant violated: access executed away from home");
  if (params_.model_caches) {
    out.memory_latency = serve_memory(home, addr, op);
  }
  return out;
}

inline std::pair<Cost, Cost> Em2Machine::migrate_thread(ThreadId t, CoreId dest) {
  const CoreId from = location_[static_cast<std::size_t>(t)];
  const CoreId nat = native_[static_cast<std::size_t>(t)];
  EM2_ASSERT(from != dest, "migrating to the current core");
  counters_.inc(Counter::kMigrations);
  last_evicted_ = kNoThread;

  // A thread at its native core occupies no guest slot; likewise arriving
  // at the native core uses the reserved context and can never evict.
  if (from != nat) {
    leave_guest_slot(t, from);
  }
  const Cost evict_cost = dest == nat ? 0 : arrive(t, dest);
  location_[static_cast<std::size_t>(t)] = dest;
  if (move_observer_ != nullptr) {
    move_observer_->on_thread_moved(t, from, dest);
  }

  // Context transfer cost and virtual-network accounting.  Migrations into
  // the thread's own native (reserved) context travel on the native vnet —
  // the guaranteed-sink channel; all other migrations use the guest vnet
  // (and, under contention correction, that vnet's inflated table).
  const bool to_native = dest == nat;
  const Cost cost = to_native ? cost_.migration_native(from, dest)
                              : cost_.migration(from, dest);
  const int vn =
      to_native ? vnet::kMigrationNative : vnet::kMigrationGuest;
  vnet_bits_[static_cast<std::size_t>(vn)] += cost_.params().context_bits;
  if (to_native) {
    counters_.inc(Counter::kMigrationsToNative);
  }
  if (traffic_sink_ != nullptr) {
    traffic_sink_->on_packet(from, dest, vn, cost_.params().context_bits);
  }
  return {cost, evict_cost};
}

inline void Em2Machine::leave_guest_slot(ThreadId t, CoreId at) {
  const auto pos =
      static_cast<std::size_t>(guest_pos_[static_cast<std::size_t>(t)]);
  EM2_ASSERT(guest_slots_[slot_base(at) + pos] == t,
             "thread away from native core missing a guest slot");
  guest_slots_[slot_base(at) + pos] = kNoThread;
  guest_mask_[static_cast<std::size_t>(at)] &=
      ~(std::uint64_t{1} << pos);
}

inline Cost Em2Machine::arrive(ThreadId t, CoreId dest) {
  const std::size_t base = slot_base(dest);
  ThreadId* slots = guest_slots_.data() + base;
  std::uint64_t* stamps = guest_stamp_.data() + base;
  std::uint64_t& mask = guest_mask_[static_cast<std::size_t>(dest)];
  Cost evict_cost = 0;
  std::size_t pos;
  if (mask == full_mask_) {
    // Figure 1: "# threads exceeded? -> migrate another thread back to its
    // native core."  Out of line (see evict_for_arrival).
    std::tie(pos, evict_cost) = evict_for_arrival(dest, slots, stamps);
  } else {
    pos = static_cast<std::size_t>(std::countr_zero(~mask));
    mask |= std::uint64_t{1} << pos;
  }
  slots[pos] = t;
  stamps[pos] = ++arrival_seq_;
  guest_pos_[static_cast<std::size_t>(t)] = static_cast<std::uint8_t>(pos);
  return evict_cost;
}

}  // namespace em2
