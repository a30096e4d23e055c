#include "em2ra/hybrid_sim.hpp"

#include "em2/trace_loop.hpp"

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

/// The run, templated on the concrete policy type so every
/// decide()/observe() inside is a direct call.  Policy = DecisionPolicy
/// (the kCustom alternative) instantiates the virtual path.
template <typename Policy>
HybridRunReport run_em2ra_impl(const TraceSource& traces,
                               const Placement& placement, const Mesh& mesh,
                               const CostModel& cost,
                               const Em2Params& params, Policy& policy,
                               TrafficRecorder* recorder,
                               FaultInjector* faults) {
  HybridMachine machine(mesh, cost, params, native_cores(traces));
  HybridRunReport report;
  report.em2 = detail::run_em2_family(
      traces, placement, machine, recorder, faults,
      [](const Access&, Addr) { return false; },
      [&](ThreadId t, CoreId home, const Access& a,
          Addr block) EM2_ALWAYS_INLINE_LAMBDA -> Cycle {
        const HybridOutcome out =
            machine.access_hybrid(policy, t, home, a.op, a.addr, block);
        return 1 + out.base.thread_cost + out.base.memory_latency;
      });
  report.policy_name = policy.name();
  report.remote_accesses = machine.counters().get("remote_accesses");
  report.remote_request_bits = machine.remote_request_bits();
  report.remote_reply_bits = machine.remote_reply_bits();
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

}  // namespace em2
