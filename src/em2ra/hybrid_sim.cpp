#include "em2ra/hybrid_sim.hpp"

#include <algorithm>
#include <limits>

#include "sim/faults.hpp"

namespace em2 {

double HybridRunReport::remote_fraction() const noexcept {
  const std::uint64_t migrations = em2.counters.get("migrations");
  const std::uint64_t nonlocal = migrations + remote_accesses;
  // Evictions also count as migrations but are not decision outcomes;
  // close enough for a summary ratio, exact splits are in the counters.
  return nonlocal == 0
             ? 0.0
             : static_cast<double>(remote_accesses) /
                   static_cast<double>(nonlocal);
}

namespace {

/// Shared per-run state of both loop shapes: machine, incremental
/// Figure-2 analysis, per-thread cursors, optional traffic clocks.
struct LoopState {
  HybridMachine& machine;
  const TraceSource& traces;
  const Placement& placement;
  RunLengthAnalyzer& analyzer;
  std::vector<RunLengthAnalyzer::ThreadState>& rl;
  std::vector<std::unique_ptr<AccessCursor>>& cursor;
  TrafficRecorder* recorder;
  std::vector<Cycle>& clock;
};

/// The retained per-access reference loop (and the only loop fault
/// injection runs: fault ticks interleave with individual accesses).
template <typename Policy>
void scalar_loop(LoopState& s, Policy& policy, FaultInjector* faults) {
  const std::size_t nthreads = s.cursor.size();
  std::uint64_t tick = 0;  // global access index: trace-mode fault time
  bool progressed = true;
  while (progressed) {
    progressed = false;
    Cycle round_min = std::numeric_limits<Cycle>::max();
    for (std::size_t t = 0; t < nthreads; ++t) {
      const Access* ap = s.cursor[t]->next();
      if (ap == nullptr) {
        continue;
      }
      const Access& a = *ap;
      progressed = true;
      const Addr block = s.traces.block_of(a.addr);
      CoreId home = s.placement.home_of_block(block);
      s.analyzer.observe(s.rl[t], home);
      if (faults != nullptr) {
        faults->set_now(tick);
        if (faults->next_failure_at() <= tick) {
          for (const CoreId dead : faults->take_due_failures(tick)) {
            s.machine.fail_core(dead);
          }
        }
        home = faults->remap(home);
        ++tick;
      }
      const HybridOutcome out = s.machine.access_hybrid(
          policy, static_cast<ThreadId>(t), home, a.op, a.addr, block);
      if (s.recorder != nullptr) {
        s.recorder->stamp(s.clock[t]);
        s.clock[t] += 1 + out.base.thread_cost + out.base.memory_latency;
        round_min = std::min(round_min, s.clock[t]);
      }
    }
    if (s.recorder != nullptr && s.recorder->complete(round_min)) {
      break;  // a capture-only run: every packet it keeps is recorded
    }
  }
}

/// The two-phase decide-then-apply tile loop.
///
/// A tile is one round-robin pass — each thread contributes at most one
/// access — so a policy's per-thread predictor state cannot change
/// between its pre-pass decision and its apply (observes run in the
/// apply pass, in exact pass order, which IS the scalar order).  The
/// pre-pass fuses gather and decide into one mutation-free loop (a
/// batch-safe decide() is a pure table/threshold read, cheap enough to
/// run unconditionally — locality is resolved at apply time, so the
/// pre-pass has no data-dependent branch at all) and bulk-adds the
/// tile's access/read/write counters, leaving the apply pass just the
/// locality check and the leg bodies: no per-access prologue, no
/// DecisionQuery, no decide() on the critical path.
///
/// Bit-identity with the scalar loop hinges on one structural fact:
/// applies run in pass order, and the only way a thread moves between
/// its pre-pass snapshot and its own apply is an eviction by an earlier
/// apply in the same pass — which always lands the victim at its NATIVE
/// core (guests evict home; a thread at its native core is never a
/// victim, and a thread migrates otherwise only during its own apply).
/// A location-dependent decide() therefore has exactly two possible
/// live inputs, both known in the pre-pass: the snapshot location and
/// the native core.  The pre-pass computes the decision for both and
/// the apply selects by comparing the live location against the
/// snapshot — a branch-free cmov, not a mispredictable re-decide path —
/// so the batched loop's branch profile per access is exactly the
/// scalar loop's (one locality branch, one migrate-vs-RA branch).
/// Location-independent schemes (kDecideReadsLocation false) skip the
/// second decision entirely: their verdict cannot go stale.  Policies
/// whose decide() reads state other threads' observes could move within
/// the pass (PolicyBatchTraits::kBatchSafeDecide == false, e.g.
/// cost-estimate's shared EWMA) skip the pre-pass and decide at apply
/// time — same order as scalar.
template <typename Policy>
void batched_loop(LoopState& s, Policy& policy) {
  using Traits = PolicyBatchTraits<Policy>;
  const std::size_t nthreads = s.cursor.size();
  // SoA tile scratch, one slot per thread, allocated once per run.  The
  // gathered access stays a pointer: a cursor's pointee is valid until
  // its next next() call, which happens in the following pass.
  std::vector<ThreadId> tl_thread(nthreads);
  std::vector<const Access*> tl_access(nthreads);
  std::vector<CoreId> tl_home(nthreads);
  std::vector<CoreId> tl_at(nthreads);  // pre-pass location snapshot
  // Figure-3 decisions (RaDecision as a byte), valid only when the
  // access applies non-locally: dec_at against the snapshot location,
  // dec_nat against the native core (the only other location the thread
  // can occupy by its apply; unused for location-independent schemes).
  std::vector<std::uint8_t> tl_dec_at(nthreads);
  std::vector<std::uint8_t> tl_dec_nat(nthreads);

  for (;;) {
    // Pre-pass (gather + decide): one access per thread, in pass order,
    // no machine mutation, no data-dependent branching.
    std::size_t n = 0;
    std::uint64_t reads = 0;
    for (std::size_t t = 0; t < nthreads; ++t) {
      const Access* ap = s.cursor[t]->next();
      if (ap == nullptr) {
        continue;
      }
      const Addr block = s.traces.block_of(ap->addr);
      const CoreId home = s.placement.home_of_block(block);
      s.analyzer.observe(s.rl[t], home);
      const auto tid = static_cast<ThreadId>(t);
      tl_thread[n] = tid;
      tl_access[n] = ap;
      tl_home[n] = home;
      if constexpr (Traits::kBatchSafeDecide) {
        reads += ap->op == MemOp::kRead ? 1u : 0u;
        const CoreId native = s.machine.native(tid);
        DecisionQuery q;
        q.thread = tid;
        q.current = native;
        q.home = home;
        q.native = native;
        q.op = ap->op;
        q.block = block;
        if constexpr (Traits::kDecideReadsLocation) {
          const CoreId at = s.machine.location(tid);
          tl_at[n] = at;
          tl_dec_nat[n] =
              static_cast<std::uint8_t>(static_cast<int>(policy.decide(q)));
          q.current = at;
        }
        tl_dec_at[n] =
            static_cast<std::uint8_t>(static_cast<int>(policy.decide(q)));
      }
      ++n;
    }
    if (n == 0) {
      break;
    }

    // Apply pass, in pass order.
    Cycle round_min = std::numeric_limits<Cycle>::max();
    if constexpr (Traits::kBatchSafeDecide) {
      s.machine.bulk_access_prologue(reads, n - reads);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const ThreadId t = tl_thread[i];
      const Access& a = *tl_access[i];
      const CoreId home = tl_home[i];
      HybridOutcome out;
      if constexpr (Traits::kBatchSafeDecide) {
        const CoreId at = s.machine.location(t);
        if (at == home) {
          out = s.machine.apply_local(policy, t, home, a.op, a.addr);
        } else {
          std::uint8_t d = tl_dec_at[i];
          if constexpr (Traits::kDecideReadsLocation) {
            // Moved since the snapshot => evicted to native: select the
            // matching precomputed decision (cmov, not a re-decide).
            d = at == tl_at[i] ? d : tl_dec_nat[i];
          }
          out = s.machine.apply_nonlocal(policy, static_cast<RaDecision>(d),
                                         t, at, home, a.op, a.addr);
        }
      } else {
        // Not batch-safe: decide at apply time, in exact scalar order
        // (access_hybrid pays its own prologue — no bulk add above).
        out = s.machine.access_hybrid(policy, t, home, a.op, a.addr,
                                      s.traces.block_of(a.addr));
      }
      if (s.recorder != nullptr) {
        s.recorder->stamp(s.clock[t]);
        s.clock[t] += 1 + out.base.thread_cost + out.base.memory_latency;
        round_min = std::min(round_min, s.clock[t]);
      }
    }
    if (s.recorder != nullptr && s.recorder->complete(round_min)) {
      break;  // a capture-only run: every packet it keeps is recorded
    }
  }
}

/// The run loop, templated on the concrete policy type so every
/// decide()/observe() inside is a direct call.  Policy = DecisionPolicy
/// instantiates the retained virtual path.
template <typename Policy>
HybridRunReport run_em2ra_impl(const TraceSource& traces,
                               const Placement& placement, const Mesh& mesh,
                               const CostModel& cost,
                               const Em2Params& params, Policy& policy,
                               TrafficRecorder* recorder,
                               FaultInjector* faults, RaPipeline pipeline) {
  const std::size_t nthreads = traces.num_threads();
  std::vector<CoreId> native;
  native.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    native.push_back(traces.native_core(t));
  }
  HybridMachine machine(mesh, cost, params, std::move(native));
  machine.set_fault_injector(faults);

  std::vector<Cycle> clock;
  if (recorder != nullptr) {
    machine.set_traffic_sink(recorder);
    clock.assign(nthreads, 0);
  }

  // Figure 2 analysis folds into the loop (see run_em2): incremental
  // per-thread observers fed the pre-fault-remap home.
  RunLengthAnalyzer analyzer;
  std::vector<RunLengthAnalyzer::ThreadState> rl;
  rl.reserve(nthreads);
  std::vector<std::unique_ptr<AccessCursor>> cursor;
  cursor.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    cursor.push_back(traces.make_cursor(t));
    rl.push_back(RunLengthAnalyzer::begin_thread(traces.native_core(t)));
  }
  LoopState state{machine, traces,   placement, analyzer,
                  rl,      cursor,   recorder,  clock};
  if (faults != nullptr || pipeline == RaPipeline::kScalar) {
    scalar_loop(state, policy, faults);
  } else {
    batched_loop(state, policy);
  }
  for (std::size_t t = 0; t < nthreads; ++t) {
    analyzer.finish_thread(rl[t]);
  }

  HybridRunReport report;
  report.policy_name = policy.name();
  report.em2.counters = machine.counters().named();
  report.em2.total_thread_cost = machine.total_thread_cost();
  report.em2.total_eviction_cost = machine.total_eviction_cost();
  report.em2.per_thread_cost.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    report.em2.per_thread_cost.push_back(
        machine.thread_cost(static_cast<ThreadId>(t)));
  }
  for (int vn = 0; vn < vnet::kNumVnets; ++vn) {
    report.em2.vnet_bits[static_cast<std::size_t>(vn)] =
        machine.vnet_bits(vn);
  }
  report.em2.cache_totals = machine.cache_totals();
  report.em2.thread_conservation_ok = machine.verify_thread_conservation();
  report.remote_accesses = machine.counters().get("remote_accesses");
  report.remote_request_bits = machine.remote_request_bits();
  report.remote_reply_bits = machine.remote_reply_bits();
  report.em2.run_lengths = analyzer.report();
  return report;
}

}  // namespace

HybridRunReport run_em2ra(const TraceSource& traces,
                          const Placement& placement, const Mesh& mesh,
                          const CostModel& cost, const Em2Params& params,
                          StandardPolicy& policy, TrafficRecorder* recorder,
                          FaultInjector* faults, RaPipeline pipeline) {
  // ONE dispatch for the whole run: the visit hoists the policy's
  // concrete type out of the trace loop.
  return policy.visit([&](auto& p) {
    return run_em2ra_impl(traces, placement, mesh, cost, params, p,
                          recorder, faults, pipeline);
  });
}

HybridRunReport run_em2ra(const TraceSet& traces, const Placement& placement,
                          const Mesh& mesh, const CostModel& cost,
                          const Em2Params& params, StandardPolicy& policy,
                          TrafficRecorder* recorder, FaultInjector* faults,
                          RaPipeline pipeline) {
  return run_em2ra(MemoryTraceSource(traces), placement, mesh, cost, params,
                   policy, recorder, faults, pipeline);
}

HybridRunReport run_em2ra(const TraceSource& traces,
                          const Placement& placement, const Mesh& mesh,
                          const CostModel& cost, const Em2Params& params,
                          DecisionPolicy& policy, TrafficRecorder* recorder,
                          FaultInjector* faults, RaPipeline pipeline) {
  return run_em2ra_impl(traces, placement, mesh, cost, params, policy,
                        recorder, faults, pipeline);
}

HybridRunReport run_em2ra(const TraceSet& traces, const Placement& placement,
                          const Mesh& mesh, const CostModel& cost,
                          const Em2Params& params, DecisionPolicy& policy,
                          TrafficRecorder* recorder, FaultInjector* faults,
                          RaPipeline pipeline) {
  return run_em2ra(MemoryTraceSource(traces), placement, mesh, cost, params,
                   policy, recorder, faults, pipeline);
}

}  // namespace em2
