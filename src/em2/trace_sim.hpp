// Trace-driven EM2 simulation: drives a whole TraceSet through the
// protocol engine and produces the aggregate report used by examples and
// the bench harness (including the Figure 2 run-length analysis).
#pragma once

#include <array>
#include <vector>

#include "em2/machine.hpp"
#include "geom/mesh.hpp"
#include "noc/cost_model.hpp"
#include "placement/placement.hpp"
#include "trace/run_length.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace em2 {

class FaultInjector;  // sim/faults.hpp

/// Aggregate results of one trace-driven run.
struct Em2RunReport {
  CounterSet counters;
  /// Network cycles experienced by accessing threads (migration latency).
  Cost total_thread_cost = 0;
  /// Network cycles experienced by displaced (evicted) threads.
  Cost total_eviction_cost = 0;
  std::vector<Cost> per_thread_cost;
  std::array<std::uint64_t, vnet::kNumVnets> vnet_bits{};
  /// Figure 2 analysis computed from the same placement.
  RunLengthReport run_lengths;
  Em2Machine::CacheTotals cache_totals;
  /// Post-run thread-conservation invariant (always checked; trivially
  /// true on fault-free runs).
  bool thread_conservation_ok = true;

  /// Migration rate: migrations per memory access.
  double migration_rate() const noexcept;
  /// Mean network cost per access (thread-experienced).
  double mean_cost_per_access() const noexcept;
};

/// Runs pure EM2 over `traces` with `placement` in the round-robin
/// interleave of trace/round_robin.hpp (one access per live thread per
/// round — the deterministic stand-in for concurrent execution).  The
/// trace arrives through the TraceSource cursor interface, so in-memory
/// sets and bounded-memory EM2S streams run the identical loop, and the
/// Figure 2 analysis folds into it incrementally (no buffered home
/// sequences).  A non-null `recorder` captures every protocol packet
/// stamped with the issuing thread's virtual clock (the contention
/// calibration pass); recording never changes the report.  A non-null `faults` injects that run's
/// fault schedule (trace-mode fault time is the global processed-access
/// index) and homes are remapped around failed cores; null stays
/// bit-identical to before fault injection existed.
Em2RunReport run_em2(const TraceSource& traces, const Placement& placement,
                     const Mesh& mesh, const CostModel& cost,
                     const Em2Params& params,
                     TrafficRecorder* recorder = nullptr,
                     FaultInjector* faults = nullptr);

}  // namespace em2
