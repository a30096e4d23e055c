#include "em2/machine.hpp"

#include "sim/faults.hpp"
#include "util/assert.hpp"

namespace em2 {

Em2Machine::Em2Machine(const Mesh& mesh, const CostModel& cost,
                       const Em2Params& params,
                       std::vector<CoreId> native_core)
    : mesh_(mesh),
      cost_(cost),
      params_(params),
      native_(std::move(native_core)),
      location_(native_),  // threads start at their native cores
      guest_capacity_(static_cast<std::size_t>(params.guest_contexts)),
      full_mask_(params.guest_contexts >= 64
                     ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << params.guest_contexts) - 1),
      guest_slots_(static_cast<std::size_t>(mesh.num_cores()) *
                       static_cast<std::size_t>(params.guest_contexts),
                   kNoThread),
      guest_stamp_(guest_slots_.size(), 0),
      guest_mask_(static_cast<std::size_t>(mesh.num_cores()), 0),
      guest_pos_(native_.size(), 0),
      per_thread_cost_(native_.size(), 0),
      rng_(params.rng_seed) {
  EM2_ASSERT(params_.guest_contexts >= 1,
             "EM2 needs at least one guest context per core");
  EM2_ASSERT(params_.guest_contexts <= 64,
             "inline guest slot files support at most 64 contexts");
  for (const CoreId c : native_) {
    EM2_ASSERT(c >= 0 && c < mesh_.num_cores(),
               "thread native core outside the mesh");
  }
  if (params_.model_caches) {
    caches_.reserve(static_cast<std::size_t>(mesh_.num_cores()));
    for (CoreId c = 0; c < mesh_.num_cores(); ++c) {
      caches_.emplace_back(params_.l1, params_.l2, params_.latency);
    }
  }
}

std::pair<std::size_t, Cost> Em2Machine::evict_for_arrival(
    CoreId dest, ThreadId* slots, std::uint64_t* stamps) {
  // The victim goes to its reserved native context on the native virtual
  // network, so the eviction can always sink.
  std::size_t pos;
  if (params_.eviction == EvictionPolicy::kRandom) {
    pos = static_cast<std::size_t>(rng_.next_below(guest_capacity_));
  } else {
    // FIFO: the smallest arrival stamp marks the oldest guest.
    pos = 0;
    for (std::size_t i = 1; i < guest_capacity_; ++i) {
      if (stamps[i] < stamps[pos]) {
        pos = i;
      }
    }
  }
  const ThreadId victim = slots[pos];
  const CoreId victim_home = native_[static_cast<std::size_t>(victim)];
  EM2_ASSERT(victim_home != dest,
             "a thread at its native core can never be a guest");
  location_[static_cast<std::size_t>(victim)] = victim_home;
  const Cost evict_cost = cost_.migration_native(dest, victim_home);
  vnet_bits_[vnet::kMigrationNative] += cost_.params().context_bits;
  if (traffic_sink_ != nullptr) {
    traffic_sink_->on_packet(dest, victim_home, vnet::kMigrationNative,
                             cost_.params().context_bits);
  }
  total_eviction_cost_ += evict_cost;
  per_thread_cost_[static_cast<std::size_t>(victim)] += evict_cost;
  counters_.inc(Counter::kEvictions);
  last_evicted_ = victim;
  if (move_observer_ != nullptr) {
    move_observer_->on_thread_moved(victim, dest, victim_home);
  }
  return {pos, evict_cost};
}

std::uint32_t Em2Machine::serve_memory_cached(CoreId core, Addr addr,
                                              MemOp op) {
  const HierarchyResult r =
      caches_[static_cast<std::size_t>(core)].access(addr, op);
  switch (r.level) {
    case HitLevel::kL1:
      counters_.inc(Counter::kL1Hits);
      break;
    case HitLevel::kL2:
      counters_.inc(Counter::kL2Hits);
      break;
    case HitLevel::kDram:
      counters_.inc(Counter::kDramFills);
      // Memory-controller round trip travels on the memory vnets.
      vnet_bits_[vnet::kMemRequest] += cost_.params().addr_bits;
      vnet_bits_[vnet::kMemReply] +=
          static_cast<std::uint64_t>(params_.l1.line_bytes) * 8;
      break;
  }
  return r.latency;
}

bool Em2Machine::apply_migration_faults(ThreadId t, CoreId from,
                                        CoreId dest,
                                        FaultFallback fallback,
                                        Cost& penalty) {
  const auto plan = faults_->plan_migration(t);
  if (plan.failed_attempts == 0) {
    return true;
  }
  ResilienceStats& st = faults_->stats();
  const CoreId nat = native_[static_cast<std::size_t>(t)];
  const bool to_native = dest == nat;
  const Cost one_way = to_native ? cost_.migration_native(from, dest)
                                 : cost_.migration(from, dest);
  const int vn =
      to_native ? vnet::kMigrationNative : vnet::kMigrationGuest;
  Cost p = 0;
  for (std::uint32_t a = 0; a < plan.failed_attempts; ++a) {
    // Each lost attempt still put a full context on the wire (priced into
    // contention calibration via the traffic sink) and then waited out
    // its backoff before retransmitting.
    p += one_way + faults_->backoff(a);
    vnet_bits_[static_cast<std::size_t>(vn)] += cost_.params().context_bits;
    if (traffic_sink_ != nullptr) {
      traffic_sink_->on_packet(from, dest, vn, cost_.params().context_bits);
    }
    ++st.injected;
    ++st.packet_drops;
    ++st.retransmissions;
  }
  if (plan.exhausted) {
    if (fallback == FaultFallback::kDegrade) {
      ++st.migrations_degraded;
      st.recovery_cost += p;
      penalty += p;
      faults_->record(FaultEvent{FaultEventKind::kMigrationDegraded,
                                 faults_->now(), t, dest,
                                 plan.failed_attempts});
      return false;
    }
    // Pure EM2: nothing to degrade to — hold the thread through one more
    // maximum backoff (the diagnosed outage) and push the migration
    // through.
    p += faults_->backoff(faults_->spec().max_retries);
    ++st.migrations_stalled;
    faults_->record(FaultEvent{FaultEventKind::kMigrationStalled,
                               faults_->now(), t, dest,
                               plan.failed_attempts});
  } else {
    ++st.migration_retries;
    faults_->record(FaultEvent{FaultEventKind::kMigrationRetry,
                               faults_->now(), t, dest,
                               plan.failed_attempts});
  }
  ++st.recovered;
  st.recovery_cost += p;
  st.recovery_latency.add(p);
  penalty += p;
  return true;
}

Cost Em2Machine::apply_remote_faults(ThreadId t, CoreId at, CoreId home,
                                     MemOp op, std::uint64_t req_bits,
                                     std::uint64_t rep_bits) {
  const auto plan = faults_->plan_remote(t);
  if (plan.failed_attempts == 0) {
    return 0;
  }
  ResilienceStats& st = faults_->stats();
  const Cost round_trip = cost_.remote_access(at, home, op);
  Cost p = 0;
  for (std::uint32_t a = 0; a < plan.failed_attempts; ++a) {
    p += round_trip + faults_->backoff(a);
    vnet_bits_[vnet::kRemoteRequest] += req_bits;
    vnet_bits_[vnet::kRemoteReply] += rep_bits;
    if (traffic_sink_ != nullptr) {
      traffic_sink_->on_packet(at, home, vnet::kRemoteRequest, req_bits);
      traffic_sink_->on_packet(home, at, vnet::kRemoteReply, rep_bits);
    }
    ++st.injected;
    ++st.packet_drops;
    ++st.retransmissions;
  }
  // A remote word read/write is idempotent, so there is no fallback: the
  // attempt after the last drawn loss always lands (exhaustion only means
  // the budget's worth of losses all happened).
  ++st.remote_retries;
  ++st.recovered;
  st.recovery_cost += p;
  st.recovery_latency.add(p);
  faults_->record(FaultEvent{FaultEventKind::kRemoteRetry, faults_->now(),
                             t, home, plan.failed_attempts});
  return p;
}

std::vector<Em2Machine::Evacuation> Em2Machine::fail_core(CoreId dead) {
  EM2_ASSERT(faults_ != nullptr, "fail_core needs a fault injector");
  EM2_ASSERT(dead >= 0 && dead < mesh_.num_cores(),
             "failing a core outside the mesh");
  faults_->mark_failed(dead);
  ResilienceStats& st = faults_->stats();
  ++st.injected;
  ++st.core_failures;
  faults_->record(FaultEvent{FaultEventKind::kCoreFailure, faults_->now(),
                             kNoThread, dead, 0});

  std::vector<Evacuation> evacuated;
  for (std::size_t i = 0; i < native_.size(); ++i) {
    const auto t = static_cast<ThreadId>(i);
    const CoreId old_nat = native_[i];
    CoreId nat = old_nat;
    if (old_nat == dead) {
      // The reserved native context moves to the deterministic
      // replacement core (earlier failures already renatived their
      // threads, so only `dead` can be stale here).
      nat = faults_->remap(dead);
      native_[i] = nat;
      ++st.threads_renatived;
      faults_->record(FaultEvent{FaultEventKind::kRenative, faults_->now(),
                                 t, nat, 0});
    }
    if (location_[i] != dead) {
      continue;
    }
    // Evacuate to the (possibly just remapped) native reserved context.
    // A resident whose native was elsewhere held a guest slot here; a
    // resident AT its native context did not — this is why evacuation is
    // not a migrate_thread call.
    if (old_nat != dead) {
      leave_guest_slot(t, dead);
    }
    location_[i] = nat;
    const Cost cost = cost_.migration_native(dead, nat);
    vnet_bits_[vnet::kMigrationNative] += cost_.params().context_bits;
    if (traffic_sink_ != nullptr) {
      traffic_sink_->on_packet(dead, nat, vnet::kMigrationNative,
                               cost_.params().context_bits);
    }
    total_eviction_cost_ += cost;
    per_thread_cost_[i] += cost;
    counters_.inc(Counter::kEvacuations);
    ++st.threads_evacuated;
    st.recovery_cost += cost;
    st.recovery_latency.add(cost);
    faults_->record(
        FaultEvent{FaultEventKind::kEvacuation, faults_->now(), t, nat, 0});
    if (move_observer_ != nullptr) {
      move_observer_->on_thread_moved(t, dead, nat);
    }
    evacuated.push_back(Evacuation{t, cost});
  }
  return evacuated;
}

bool Em2Machine::verify_thread_conservation() const {
  std::size_t away = 0;
  for (std::size_t i = 0; i < native_.size(); ++i) {
    const CoreId loc = location_[i];
    if (loc < 0 || loc >= mesh_.num_cores()) {
      return false;
    }
    if (faults_ != nullptr && faults_->failed(loc)) {
      return false;  // resident on a dead core
    }
    if (loc == native_[i]) {
      continue;  // reserved context, no guest slot
    }
    ++away;
    const auto pos = static_cast<std::size_t>(guest_pos_[i]);
    if (pos >= guest_capacity_ ||
        guest_slots_[slot_base(loc) + pos] != static_cast<ThreadId>(i) ||
        (guest_mask_[static_cast<std::size_t>(loc)] >> pos & 1) == 0) {
      return false;  // location and guest bookkeeping disagree
    }
  }
  std::size_t occupied = 0;
  for (const std::uint64_t mask : guest_mask_) {
    occupied += static_cast<std::size_t>(std::popcount(mask));
  }
  // Exactly the away-from-native threads occupy guest slots: no thread
  // lost in flight, none resident twice.
  return occupied == away;
}

Em2Machine::CacheTotals Em2Machine::cache_totals() const {
  CacheTotals totals;
  for (const CacheHierarchy& h : caches_) {
    totals.l1_hits += h.l1().hits();
    totals.l2_hits += h.l2().hits();
    totals.dram_fills += h.dram_fills();
    totals.dram_writebacks += h.dram_writebacks();
  }
  return totals;
}

}  // namespace em2
