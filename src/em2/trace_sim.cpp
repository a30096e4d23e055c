#include "em2/trace_sim.hpp"

#include "em2/trace_loop.hpp"

namespace em2 {

double Em2RunReport::migration_rate() const noexcept {
  const std::uint64_t accesses = counters.get("accesses");
  return accesses == 0 ? 0.0
                       : static_cast<double>(counters.get("migrations")) /
                             static_cast<double>(accesses);
}

double Em2RunReport::mean_cost_per_access() const noexcept {
  const std::uint64_t accesses = counters.get("accesses");
  return accesses == 0 ? 0.0
                       : static_cast<double>(total_thread_cost) /
                             static_cast<double>(accesses);
}

Em2RunReport run_em2(const TraceSource& traces, const Placement& placement,
                     const Mesh& mesh, const CostModel& cost,
                     const Em2Params& params, TrafficRecorder* recorder,
                     FaultInjector* faults) {
  Em2Machine machine(mesh, cost, params, native_cores(traces));
  return detail::run_em2_family(
      traces, placement, machine, recorder, faults,
      [](const Access&, Addr) { return false; },
      [&](ThreadId t, CoreId home, const Access& a,
          Addr) EM2_ALWAYS_INLINE_LAMBDA -> Cycle {
        const AccessOutcome out = machine.access(t, home, a.op, a.addr);
        return 1 + out.thread_cost + out.memory_latency;
      });
}

}  // namespace em2
