#include "em2/trace_sim.hpp"

#include <algorithm>
#include <limits>

#include "sim/faults.hpp"
#include "util/assert.hpp"

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
  const std::size_t nthreads = traces.num_threads();
  std::vector<CoreId> native;
  native.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    native.push_back(traces.native_core(t));
  }
  Em2Machine machine(mesh, cost, params, std::move(native));
  machine.set_fault_injector(faults);

  // Per-thread virtual clocks (calibration only): one cycle of compute per
  // access plus the access's uncontended network/memory latency — the
  // open-loop injection schedule the fabric replay uses.
  std::vector<Cycle> clock;
  if (recorder != nullptr) {
    machine.set_traffic_sink(recorder);
    clock.assign(nthreads, 0);
  }

  // Figure 2 analysis folds into the main loop: one incremental observer
  // per thread, fed the pre-fault-remap home of each access.  The
  // per-thread states are independent and the report accumulation is
  // commutative, so this interleaved order is bit-identical to the old
  // whole-thread second pass.
  RunLengthAnalyzer analyzer;
  std::vector<RunLengthAnalyzer::ThreadState> rl;
  rl.reserve(nthreads);

  // Round-robin interleaving: one access per live thread per round.
  std::vector<std::unique_ptr<AccessCursor>> cursor;
  cursor.reserve(nthreads);
  for (std::size_t t = 0; t < nthreads; ++t) {
    cursor.push_back(traces.make_cursor(t));
    rl.push_back(RunLengthAnalyzer::begin_thread(traces.native_core(t)));
  }
  std::uint64_t tick = 0;  // global access index: trace-mode fault time
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
      CoreId home = placement.home_of_block(traces.block_of(a.addr));
      analyzer.observe(rl[t], home);
      if (faults != nullptr) {
        faults->set_now(tick);
        if (faults->next_failure_at() <= tick) {
          for (const CoreId dead : faults->take_due_failures(tick)) {
            machine.fail_core(dead);
          }
        }
        // The failed home's address slice re-homes to its replacement.
        home = faults->remap(home);
        ++tick;
      }
      const AccessOutcome out =
          machine.access(static_cast<ThreadId>(t), home, a.op, a.addr);
      if (recorder != nullptr) {
        recorder->stamp(clock[t]);
        clock[t] += 1 + out.thread_cost + out.memory_latency;
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

Em2RunReport run_em2(const TraceSet& traces, const Placement& placement,
                     const Mesh& mesh, const CostModel& cost,
                     const Em2Params& params, TrafficRecorder* recorder,
                     FaultInjector* faults) {
  return run_em2(MemoryTraceSource(traces), placement, mesh, cost, params,
                 recorder, faults);
}

}  // namespace em2
