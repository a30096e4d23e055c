// Trace-driven directory-CC simulation: the same round-robin trace
// driver (trace/round_robin.hpp) as the EM2 engines, so benches compare
// the architectures on identical interleavings of identical traces.
//
// Note the core difference being measured: under CC the *thread stays
// put* and lines replicate toward it (multi-message transactions,
// directory state, invalidations); under EM2 the *thread moves* to the
// single copy (one-way context transfer, no directory at all).
#pragma once

#include "coherence/directory.hpp"
#include "placement/placement.hpp"
#include "trace/trace.hpp"

namespace em2 {

/// Aggregate results of one CC run.
struct CcRunReport {
  CounterSet counters;
  Cost total_latency = 0;
  std::uint64_t traffic_bits = 0;
  double replication_factor = 1.0;
  std::uint64_t directory_bits = 0;
  std::uint64_t distinct_lines = 0;
  std::uint64_t valid_lines = 0;

  double mean_latency_per_access() const noexcept;
  double messages_per_access() const noexcept;
};

/// Runs the MSI directory protocol over `traces` in the round-robin
/// interleave of trace/round_robin.hpp (thread t issues from its native
/// core — threads do not move under CC).  A non-null `recorder` captures
/// every protocol message as a packet for the contention calibration
/// pass.
CcRunReport run_cc(const TraceSource& traces, const Placement& placement,
                   const Mesh& mesh, const CostModel& cost,
                   const DirCcParams& params,
                   TrafficRecorder* recorder = nullptr);

}  // namespace em2
