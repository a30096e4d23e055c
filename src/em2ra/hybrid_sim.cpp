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

/// The run loop, templated on the concrete policy type so every
/// decide()/observe() inside is a direct call.  Policy = DecisionPolicy
/// instantiates the retained virtual path.
template <typename Policy>
HybridRunReport run_em2ra_impl(const TraceSource& traces,
                               const Placement& placement, const Mesh& mesh,
                               const CostModel& cost,
                               const Em2Params& params, Policy& policy,
                               TrafficRecorder* recorder,
                               FaultInjector* faults) {
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
  // Round-robin over the cursors; fault injection ticks once per access
  // (trace-mode fault time is the global access index).
  std::uint64_t tick = 0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    Cycle round_min = std::numeric_limits<Cycle>::max();
    for (std::size_t t = 0; t < nthreads; ++t) {
      const Access* ap = cursor[t]->next();
      if (ap == nullptr) {
        continue;
      }
      const Access& a = *ap;
      progressed = true;
      const Addr block = traces.block_of(a.addr);
      CoreId home = placement.home_of_block(block);
      analyzer.observe(rl[t], home);
      if (faults != nullptr) {
        faults->set_now(tick);
        if (faults->next_failure_at() <= tick) {
          for (const CoreId dead : faults->take_due_failures(tick)) {
            machine.fail_core(dead);
          }
        }
        home = faults->remap(home);
        ++tick;
      }
      const HybridOutcome out = machine.access_hybrid(
          policy, static_cast<ThreadId>(t), home, a.op, a.addr, block);
      if (recorder != nullptr) {
        recorder->stamp(clock[t]);
        clock[t] += 1 + out.base.thread_cost + out.base.memory_latency;
        round_min = std::min(round_min, clock[t]);
      }
    }
    if (recorder != nullptr && recorder->complete(round_min)) {
      break;  // a capture-only run: every packet it keeps is recorded
    }
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
                          FaultInjector* faults) {
  // ONE dispatch for the whole run: the visit hoists the policy's
  // concrete type out of the trace loop.
  return policy.visit([&](auto& p) {
    return run_em2ra_impl(traces, placement, mesh, cost, params, p,
                          recorder, faults);
  });
}

HybridRunReport run_em2ra(const TraceSet& traces, const Placement& placement,
                          const Mesh& mesh, const CostModel& cost,
                          const Em2Params& params, StandardPolicy& policy,
                          TrafficRecorder* recorder, FaultInjector* faults) {
  return run_em2ra(MemoryTraceSource(traces), placement, mesh, cost, params,
                   policy, recorder, faults);
}

HybridRunReport run_em2ra(const TraceSource& traces,
                          const Placement& placement, const Mesh& mesh,
                          const CostModel& cost, const Em2Params& params,
                          DecisionPolicy& policy, TrafficRecorder* recorder,
                          FaultInjector* faults) {
  return run_em2ra_impl(traces, placement, mesh, cost, params, policy,
                        recorder, faults);
}

HybridRunReport run_em2ra(const TraceSet& traces, const Placement& placement,
                          const Mesh& mesh, const CostModel& cost,
                          const Em2Params& params, DecisionPolicy& policy,
                          TrafficRecorder* recorder, FaultInjector* faults) {
  return run_em2ra(MemoryTraceSource(traces), placement, mesh, cost, params,
                   policy, recorder, faults);
}

}  // namespace em2
