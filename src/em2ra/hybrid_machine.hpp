// The EM2-RA hybrid protocol engine — Figure 3 of the paper.
//
// Extends the EM2 flow with a remote-cache-access path: on a non-local
// access the decision procedure either migrates the thread (EM2 path) or
// sends a remote request to the home core, which performs the access and
// returns the data (read) or an ack (write) while the thread stays put.
//
// "To avoid interconnect deadlock, the remote-access virtual subnetwork
// must be separate from the subnetworks used for migrations (cf. [10]),
// requiring six virtual channels in total" — remote requests and replies
// travel on vnet::kRemoteRequest / vnet::kRemoteReply, never mixing with
// the two migration vnets or the two memory vnets.
#pragma once

#include "em2/machine.hpp"
#include "em2ra/policy.hpp"

namespace em2 {

/// Outcome of one EM2-RA access (superset of the EM2 outcome).
struct HybridOutcome {
  AccessOutcome base;
  /// The access was served by a remote round trip (thread did not move).
  bool remote = false;
  /// The policy chose to migrate but the retry budget ran out under
  /// injected faults, so the access degraded to the remote path.
  bool degraded = false;
};

/// EM2-RA protocol engine: EM2 plus the remote-access path and the
/// decision procedure.
///
/// The decision policy is a PARAMETER of each access, not machine state:
/// access_hybrid is templated on the concrete policy type, so a run loop
/// that hoisted one StandardPolicy::visit pays direct, inlinable
/// decide()/observe() calls per access — zero virtual dispatch on the
/// hottest path in the simulator.  Instantiating it with the
/// DecisionPolicy base retains the historical virtual path (the kCustom
/// escape hatch and the dispatch-equivalence reference).
///
/// ThreadMoveObserver note: remote accesses never move a thread, so the
/// base class's observer hook already covers every location change a
/// hybrid machine can make (migrations and the evictions they cause) —
/// the execution-driven scheduler's resident queues need no extra wiring
/// for the RA path.
class HybridMachine : public Em2Machine {
 public:
  /// Same construction as the EM2 engine; the policy arrives per access.
  HybridMachine(const Mesh& mesh, const CostModel& cost,
                const Em2Params& params, std::vector<CoreId> native_core)
      : Em2Machine(mesh, cost, params, std::move(native_core)),
        req_bits_by_op_{cost.params().addr_bits,
                        cost.params().addr_bits + cost.params().word_bits},
        rep_bits_by_op_{cost.params().word_bits, 0} {}

  /// One Figure-3 traversal under `policy`.  `block` is the placement
  /// block of `addr` (policies may key predictor state on it).  The
  /// machine keeps the policy informed of every access (observe) so
  /// predictive policies can train; callers must pass the SAME policy
  /// object for the lifetime of a run.
  template <typename Policy>
  EM2_ALWAYS_INLINE HybridOutcome access_hybrid(Policy& policy, ThreadId t,
                                                CoreId home, MemOp op,
                                                Addr addr, Addr block);

  /// Remote-access traffic in bits, split by direction.
  std::uint64_t remote_request_bits() const noexcept {
    return remote_request_bits_;
  }
  std::uint64_t remote_reply_bits() const noexcept {
    return remote_reply_bits_;
  }

 private:
  /// Shared per-access counter prologue (total + read/write split).
  EM2_ALWAYS_INLINE void access_prologue(MemOp op) {
    counters_.inc(Counter::kAccesses);
    // kReads and kWrites are adjacent in MemOp order: branchless dispatch.
    counters_.inc(static_cast<Counter>(
        static_cast<std::uint8_t>(Counter::kReads) +
        static_cast<std::uint8_t>(op)));
  }

  /// Remote request/reply payload bits indexed by MemOp (reads send an
  /// address and get a word back; writes send address + word and get a
  /// header-only ack) — precomputed so the remote hot path loads two
  /// constants instead of recombining CostModelParams fields per access.
  std::uint64_t req_bits_by_op_[2];
  std::uint64_t rep_bits_by_op_[2];
  std::uint64_t remote_request_bits_ = 0;
  std::uint64_t remote_reply_bits_ = 0;
};

// Inline below the class for the same reason as Em2Machine::access: this
// body runs once per EM2-RA memory access from the trace loop, the
// execution engines, and bench_hot_path, and the decision calls inside must
// inline against the concrete policy the caller's visit selected.

template <typename Policy>
HybridOutcome HybridMachine::access_hybrid(Policy& policy, ThreadId t,
                                           CoreId home, MemOp op, Addr addr,
                                           Addr block) {
  // First-class Figure-3 traversal (not a wrapper over Em2Machine::access,
  // which would re-load and re-compare the thread's location): the shared
  // prologue runs once, then the three outcomes split.  Counter and
  // traffic accounting is line-for-line the same as the EM2 engine's on
  // the local and migrate legs.
  EM2_ASSERT(t >= 0 && static_cast<std::size_t>(t) < num_threads(),
             "unknown thread");
  EM2_ASSERT(home >= 0 && home < mesh().num_cores(),
             "home core outside the mesh");
  access_prologue(op);
  const CoreId at = location(t);
  HybridOutcome out;

  if (at == home) {
    // Local: identical to Figure 1's left branch.
    out.base.local = true;
    counters_.inc(Counter::kAccessesLocal);
    out.base.memory_latency = serve_memory(home, addr, op);
    policy.observe(t, home, native(t));
    return out;
  }

  DecisionQuery q;
  q.thread = t;
  q.current = at;
  q.home = home;
  q.native = native(t);
  q.op = op;
  q.block = block;
  Cost fault_penalty = 0;
  if (policy.decide(q) == RaDecision::kMigrate) {
    // Under injected faults the migration may exhaust its retry budget;
    // EM2-RA then gracefully degrades to the remote path below, carrying
    // the cost of the wasted attempts in fault_penalty.
    if (faults_ == nullptr ||
        apply_migration_faults(t, at, home, FaultFallback::kDegrade,
                               fault_penalty)) {
      // EM2 path: migrate (with possible eviction), then access locally.
      const auto [thread_cost, eviction_cost] = migrate_thread(t, home);
      out.base.migrated = true;
      out.base.thread_cost = thread_cost + fault_penalty;
      out.base.eviction_cost = eviction_cost;
      out.base.caused_eviction = last_evicted() != kNoThread;
      out.base.evicted_thread = last_evicted();
      account_thread_cost(t, out.base.thread_cost);
      // The access itself always executes at the home core: the
      // single-home invariant from which sequential consistency follows.
      EM2_ASSERT(location(t) == home,
                 "EM2 invariant violated: access executed away from home");
      out.base.memory_latency = serve_memory(home, addr, op);
      policy.observe(t, home, native(t));
      return out;
    }
    out.degraded = true;
  }

  // Remote-access path (Figure 3, bottom): "Send remote request to home
  // core; [home core:] access memory; return data (read) or ack (write)
  // to the requesting core; continue execution."  The thread never moves.
  counters_.inc(Counter::kRemoteAccesses);
  counters_.inc(static_cast<Counter>(
      static_cast<std::uint8_t>(Counter::kRemoteReads) +
      static_cast<std::uint8_t>(op)));
  out.remote = true;

  const Cost rt = cost_model().remote_access(at, home, op);
  const std::uint64_t req_bits =
      req_bits_by_op_[static_cast<std::uint8_t>(op)];
  const std::uint64_t rep_bits =
      rep_bits_by_op_[static_cast<std::uint8_t>(op)];
  if (faults_ != nullptr) {
    fault_penalty +=
        apply_remote_faults(t, at, home, op, req_bits, rep_bits);
  }
  out.base.thread_cost = rt + fault_penalty;
  account_thread_cost(t, out.base.thread_cost);

  remote_request_bits_ += req_bits;
  remote_reply_bits_ += rep_bits;
  add_vnet_bits(vnet::kRemoteRequest, req_bits);
  add_vnet_bits(vnet::kRemoteReply, rep_bits);
  if (traffic_sink_ != nullptr) {
    // The round trip is two packets: the request and the data/ack reply
    // (a write's ack is header-only but still occupies the reply vnet).
    traffic_sink_->on_packet(at, home, vnet::kRemoteRequest, req_bits);
    traffic_sink_->on_packet(home, at, vnet::kRemoteReply, rep_bits);
  }

  // The word is still served by the *home* core's hierarchy: remote access
  // does not replicate data, so the single-home invariant stands.
  out.base.memory_latency = serve_memory(home, addr, op);
  policy.observe(t, home, native(t));
  return out;
}

}  // namespace em2
