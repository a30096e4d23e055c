// The EM²-family trace loop behind run_em2, run_em2ra and
// run_em2_replicated: one pass of the round-robin driver that maps each
// access to its home, folds the Figure 2 run-length analysis in, applies
// the run's fault schedule, and fills the Em2RunReport.  Private to the
// trace-mode engines.
#pragma once

#include "em2/trace_sim.hpp"
#include "sim/faults.hpp"
#include "trace/round_robin.hpp"

namespace em2::detail {

/// Drives `machine` (an Em2Machine or a HybridMachine built over
/// native_cores(traces)) through `traces` and returns its report.
///
/// Per access, `local(a, block)` is asked first: true means the access is
/// served where the thread already is — no home, no machine access, one
/// cycle of compute — and it is counted by the caller.  Otherwise the
/// home of the access's block feeds the run-length observer (before any
/// fault remap), a non-null `faults` advances trace-mode fault time (the
/// global processed-access index), fails the cores due by then and
/// remaps the home around failed cores, and `serve(t, home, a, block)`
/// performs the architecture's access, returning the cycles it took.
/// Callers mark `serve` EM2_ALWAYS_INLINE_LAMBDA (see util/types.hpp).
template <typename Local, typename Serve>
Em2RunReport run_em2_family(const TraceSource& traces,
                            const Placement& placement, Em2Machine& machine,
                            TrafficRecorder* recorder, FaultInjector* faults,
                            Local&& local, Serve&& serve) {
  const std::size_t nthreads = traces.num_threads();
  machine.set_traffic_sink(recorder);
  machine.set_fault_injector(faults);

  // Incremental per-thread observers: no buffered home sequences, so
  // streamed runs stay bounded-memory.  The per-thread states are
  // independent and the report accumulation commutative, so the
  // interleaved order gives the whole-thread analysis bit for bit.
  RunLengthAnalyzer analyzer;
  std::vector<RunLengthAnalyzer::ThreadState> rl;
  rl.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    rl.push_back(RunLengthAnalyzer::begin_thread(traces.native_core(t)));
  }
  std::uint64_t tick = 0;
  for_each_round_robin(
      traces, recorder,
      [&](std::size_t t, const Access& a) EM2_ALWAYS_INLINE_LAMBDA -> Cycle {
        const Addr block = traces.block_of(a.addr);
        if (local(a, block)) {
          return 1;
        }
        CoreId home = placement.home_of_block(block);
        analyzer.observe(rl[t], home);
        if (faults != nullptr) {
          faults->set_now(tick);
          if (faults->next_failure_at() <= tick) [[unlikely]] {
            for (const CoreId dead : faults->take_due_failures(tick)) {
              machine.fail_core(dead);
            }
          }
          // The failed home's address slice re-homes to its replacement.
          home = faults->remap(home);
          ++tick;
        }
        return serve(static_cast<ThreadId>(t), home, a, block);
      });
  for (std::size_t t = 0; t < nthreads; ++t) {
    analyzer.finish_thread(rl[t]);
  }

  Em2RunReport report;
  report.counters = machine.counters().named();
  report.total_thread_cost = machine.total_thread_cost();
  report.total_eviction_cost = machine.total_eviction_cost();
  report.per_thread_cost.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    report.per_thread_cost.push_back(
        machine.thread_cost(static_cast<ThreadId>(t)));
  }
  for (int vn = 0; vn < vnet::kNumVnets; ++vn) {
    report.vnet_bits[static_cast<std::size_t>(vn)] = machine.vnet_bits(vn);
  }
  report.cache_totals = machine.cache_totals();
  report.thread_conservation_ok = machine.verify_thread_conservation();
  report.run_lengths = analyzer.report();
  return report;
}

}  // namespace em2::detail
